package tools

import "testing"

// The §2.5.2 program: defined under the default (left-to-right) order, so
// single-run kcc accepts it — but right-to-left divides by zero, and the
// searching variant must find that order.
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
	searching := analyze(KCCSearch(Config{}), setDenomSrc, "setdenom.c")
	if searching.Verdict != Flagged {
		t.Fatalf("kcc -search must find the division by zero, got %v (%s)",
			searching.Verdict, searching.Detail)
	}
}

func TestSearchAcceptsDefined(t *testing.T) {
	rep := analyze(KCCSearch(Config{}), `
int add(int a, int b) { return a + b; }
int main(void) { return add(1, 2) + add(3, 4) - 10; }
`, "defined.c")
	if rep.Verdict != Accepted {
		t.Errorf("got %v (%s)", rep.Verdict, rep.Detail)
	}
}

func TestSearchFlagsOrderIndependentUB(t *testing.T) {
	rep := analyze(KCCSearch(Config{}),
		"int main(void){ int z = 0; return 1 / z; }", "div.c")
	if rep.Verdict != Flagged {
		t.Errorf("got %v (%s)", rep.Verdict, rep.Detail)
	}
}

func TestSearchStaticUB(t *testing.T) {
	rep := analyze(KCCSearch(Config{}), "int a[0]; int main(void){ return 0; }", "z.c")
	if rep.Verdict != Flagged {
		t.Errorf("got %v (%s)", rep.Verdict, rep.Detail)
	}
}
