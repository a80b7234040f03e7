package tools

import (
	"context"
	"strings"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
)

// analyze runs t on src through Analyze with a fresh cache.
func analyze(t Tool, src, file string) Report {
	return Analyze(context.Background(), driver.NewCache(), t, src, file, driver.Options{})
}

// capability matrix tests: each tool must catch exactly what its detection
// principle can see. The paper's Figure 2/3 shape rests on this.

type expectation struct {
	name     string
	src      string
	memcheck Verdict
	checkptr Verdict
	va       Verdict
	kcc      Verdict
}

func runMatrix(t *testing.T, cases []expectation) {
	t.Helper()
	cfg := Config{}
	toolset := map[string]Tool{
		"memcheck": Memcheck(cfg),
		"checkptr": CheckPointer(cfg),
		"va":       ValueAnalysis(cfg),
		"kcc":      KCC(cfg),
	}
	for _, c := range cases {
		want := map[string]Verdict{
			"memcheck": c.memcheck, "checkptr": c.checkptr,
			"va": c.va, "kcc": c.kcc,
		}
		for tn, tool := range toolset {
			rep := analyze(tool, c.src, c.name+".c")
			if rep.Verdict != want[tn] {
				t.Errorf("%s / %s: verdict %v (%s), want %v",
					c.name, tn, rep.Verdict, rep.Detail, want[tn])
			}
		}
	}
}

func TestDivisionByZeroMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "divzero",
		src:  "int main(void){ int z = 0; return 7 / z; }",
		// Valgrind and CheckPointer "do not try to detect division by
		// zero" (§5.1.2): the program just traps.
		memcheck: Crashed, checkptr: Crashed, va: Flagged, kcc: Flagged,
	}})
}

func TestSignedOverflowMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "overflow",
		src: `#include <limits.h>
int main(void){ int x = INT_MAX; int y = x + 1; return y == INT_MIN ? 0 : 1; }`,
		// On the bare machine the addition wraps silently.
		memcheck: Accepted, checkptr: Accepted, va: Flagged, kcc: Flagged,
	}})
}

func TestUninitMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "uninit",
		src:  "int main(void){ int x; if (x > 0) return 1; return 0; }",
		// CheckPointer does not track non-pointer values.
		memcheck: Flagged, checkptr: Accepted, va: Flagged, kcc: Flagged,
	}})
}

func TestHeapOverflowMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "heapoob",
		src: `#include <stdlib.h>
int main(void){ char *p = malloc(8); p[8] = 1; free(p); return 0; }`,
		memcheck: Flagged, checkptr: Flagged, va: Flagged, kcc: Flagged,
	}})
}

func TestStackOverflowMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "stackoob",
		src:  `int main(void){ int a[4]; int i = 5; a[i] = 1; return 0; }`,
		// Valgrind cannot see within-stack overflows: the neighboring
		// bytes are addressable.
		memcheck: Accepted, checkptr: Flagged, va: Flagged, kcc: Flagged,
	}})
}

func TestUseAfterFreeMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "uaf",
		src: `#include <stdlib.h>
int main(void){ int *p = malloc(4); *p = 1; free(p); return *p; }`,
		memcheck: Flagged, checkptr: Flagged, va: Flagged, kcc: Flagged,
	}})
}

func TestBadFreeMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "badfree",
		src: `#include <stdlib.h>
int main(void){ int x; free(&x); return 0; }`,
		memcheck: Flagged, checkptr: Flagged, va: Flagged, kcc: Flagged,
	}})
}

func TestUnsequencedMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "unseq",
		src:  "int main(void){ int x = 0; return (x = 1) + (x = 2); }",
		// Only the semantics-based checker tracks sequence points.
		memcheck: Accepted, checkptr: Accepted, va: Accepted, kcc: Flagged,
	}})
}

func TestConstMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "constwrite",
		src:  `int main(void){ const int c = 1; *(int*)&c = 2; return 0; }`,
		// const locals live in writable memory on a real machine.
		memcheck: Accepted, checkptr: Accepted, va: Accepted, kcc: Flagged,
	}})
}

func TestAliasMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name:     "alias",
		src:      `int main(void){ long l = 1; int *ip = (int*)&l; return *ip; }`,
		memcheck: Accepted, checkptr: Accepted, va: Accepted, kcc: Flagged,
	}})
}

func TestPtrCompareMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name:     "ptrcmp",
		src:      "int main(void){ int a, b; a = b = 0; return &a < &b ? a : b; }",
		memcheck: Accepted, checkptr: Flagged, va: Flagged, kcc: Flagged,
	}})
}

func TestBadCallMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "badcall",
		src: `
int f();
int main(void) { return f(1); }
int f(int a, int b) { return b ? a : 0; }`,
		// memcheck sees the *effect*: parameter b is uninitialized.
		memcheck: Flagged, checkptr: Flagged, va: Flagged, kcc: Flagged,
	}})
}

func TestStaticUBOnlyKCC(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "zeroarray",
		src:  "int a[0]; int main(void){ return 0; }",
		// Statically undefined, dynamically invisible: only the
		// translation-time checker sees it.
		memcheck: Accepted, checkptr: Accepted, va: Accepted, kcc: Flagged,
	}})
}

func TestDefinedProgramAllAccept(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "ok",
		src: `#include <stdio.h>
int main(void){ printf("ok\n"); return 0; }`,
		memcheck: Accepted, checkptr: Accepted, va: Accepted, kcc: Accepted,
	}, {
		// The §2.5.2 program is defined on the default (left-to-right)
		// order, so one run accepts it; right-to-left divides by zero,
		// which only a search of the orders finds (search's
		// TestSetDenomSearch).
		name: "setdenom",
		src: `
int d = 5;
int setDenom(int x){
	return d = x;
}
int main(void) {
	return (10/d) + setDenom(0);
}
`,
		memcheck: Accepted, checkptr: Accepted, va: Accepted, kcc: Accepted,
	}})
}

func TestShiftMatrix(t *testing.T) {
	runMatrix(t, []expectation{{
		name: "shift",
		src:  "int main(void){ int n = 40; int r = 1 << n; return r == 256 ? 0 : 0; }",
		// The x86 shifter masks the count; only value-aware tools object.
		memcheck: Accepted, checkptr: Accepted, va: Flagged, kcc: Flagged,
	}})
}

func TestToolNames(t *testing.T) {
	names := map[string]bool{}
	for _, tool := range All(Config{}) {
		names[tool.Name()] = true
	}
	for _, want := range []string{"Valgrind", "CheckPointer", "V. Analysis", "kcc"} {
		if !names[want] {
			t.Errorf("missing tool %q", want)
		}
	}
}

func TestInconclusiveOnBadSource(t *testing.T) {
	rep := analyze(KCC(Config{}), "int main(void { return 0; }", "bad.c")
	if rep.Verdict != Inconclusive || !strings.HasPrefix(rep.Detail, "compile: ") || rep.RunDuration != 0 {
		t.Errorf("report = %+v, want inconclusive with a compile: detail and no run", rep)
	}
}

func TestInconclusiveOnBudget(t *testing.T) {
	rep := analyze(KCC(Config{Budget: interp.Budget{MaxSteps: 1000}}),
		"int main(void){ while (1) { } return 0; }", "loop.c")
	if rep.Verdict != Inconclusive {
		t.Errorf("verdict = %v (%s)", rep.Verdict, rep.Detail)
	}
}
