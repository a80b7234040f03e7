package tools

import (
	"context"
	"testing"

	"repro/internal/driver"
	"repro/internal/search"
)

// The single-run kcc tool runs one evaluation order; kcc -search explores
// all of them with search.Explore (paper §2.5.2 — "any tool seeking to
// identify all undefined behaviors must search all possible evaluation
// strategies"). These tests pin how the two relate on the same programs.

// explore compiles src and searches its orders under kcc's default step
// budget, stopping at the first undefined behavior.
func explore(t *testing.T, src string) search.Result {
	t.Helper()
	prog, err := driver.Compile(src, "search.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return search.Explore(context.Background(), prog, search.Options{
		MaxRuns:       256,
		MaxSteps:      Config{}.Budget.WithDefaults().MaxSteps,
		StopAtFirstUB: true,
		Parallelism:   1,
		POR:           true,
	})
}

// The §2.5.2 program: defined under the default (left-to-right) order, so
// single-run kcc accepts it — but right-to-left divides by zero, and the
// search must find that order.
const setDenomSrc = `
int d = 5;
int setDenom(int x){
	return d = x;
}
int main(void) {
	return (10/d) + setDenom(0);
}
`

func TestSearchFindsOrderDependentUB(t *testing.T) {
	single := analyze(KCC(Config{}), setDenomSrc, "setdenom.c")
	if single.Verdict != Accepted {
		t.Fatalf("single-run kcc on the GCC order should accept, got %v (%s)",
			single.Verdict, single.Detail)
	}
	if res := explore(t, setDenomSrc); res.UB() == nil {
		t.Fatal("the search must find the division by zero")
	}
}

func TestSearchAcceptsDefined(t *testing.T) {
	src := `
int add(int a, int b) { return a + b; }
int main(void) { return add(1, 2) + add(3, 4) - 10; }
`
	if rep := analyze(KCC(Config{}), src, "defined.c"); rep.Verdict != Accepted {
		t.Errorf("kcc: got %v (%s)", rep.Verdict, rep.Detail)
	}
	res := explore(t, src)
	if u := res.UB(); u != nil {
		t.Errorf("search: unexpected UB: %v", u)
	}
	for _, o := range res.Outcomes {
		if o.Err != nil {
			t.Errorf("search: run failed: %v", o.Err)
		}
	}
	if !res.Deterministic() {
		t.Errorf("search: got %d outcomes", len(res.Outcomes))
	}
}

func TestSearchFlagsOrderIndependentUB(t *testing.T) {
	src := "int main(void){ int z = 0; return 1 / z; }"
	if rep := analyze(KCC(Config{}), src, "div.c"); rep.Verdict != Flagged {
		t.Errorf("kcc: got %v (%s)", rep.Verdict, rep.Detail)
	}
	res := explore(t, src)
	if res.UB() == nil {
		t.Fatal("search: expected UB")
	}
	if res.Runs != 1 {
		t.Errorf("search: UB on every order should stop after one run, ran %d", res.Runs)
	}
}
