package vm_test

// FuzzEngineDiff feeds arbitrary source text to both engines and fails on
// any observable divergence. The frontend rejects most mutations (both
// engines then share the compile error trivially); the survivors are
// exactly the interesting population — small weird-but-valid programs the
// hand-written suites would never contain.

import (
	"fmt"
	"testing"

	undefc "repro"
	"repro/internal/interp"
)

func FuzzEngineDiff(f *testing.F) {
	seeds := []string{
		"int main(void) { int x; return x; }",
		"int main(void) { int x = 0; return (x = 1) + (x = 2); }",
		"int main(void) { int a[3]; a[3] = 1; return 0; }",
		"int main(void) { int i; for (i = 0; i < 5; i++) { if (i == 2) continue; } return i; }",
		"int f(int n) { return n <= 1 ? 1 : n * f(n - 1); }\nint main(void) { return f(6) % 100; }",
		"int main(void) { int x = 7; switch (x % 3) { case 0: return 1; case 1: return 2; default: return 3; } }",
		"int main(void) { goto in; { int y = 1; in: y = 2; return y; } }",
		"int main(void) { int n = 4; int a[n]; a[0] = 9; return a[0]; }",
		"int main(void) { char *p = 0; return *p; }",
		"int main(void) { unsigned u = 0; return (int)(u - 1) < 0; }",
		"struct s { int a; int b; };\nint main(void) { struct s v = {1, 2}; struct s *p = &v; return p->b; }",
		"int main(void) { int x = 1 << 30; return (x + x) > 0; }",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	for _, dir := range []string{"jumps", "arith"} {
		for _, p := range corpus(f, dir) {
			f.Add(p.src)
		}
	}
	f.Fuzz(func(t *testing.T, src string) {
		const budget = 200_000 // unbounded loops must die quickly, identically
		run := func(engine string) (string, string) {
			res := undefc.RunSource(src, "fuzz.c", undefc.Options{
				Exec: interp.Options{Engine: engine, Budget: interp.Budget{MaxSteps: budget}},
			})
			verdict := fmt.Sprintf("exit=%d output=%q", res.ExitCode, res.Output)
			ub := ""
			if res.UB != nil {
				ub = fmt.Sprintf("%05d %s", res.UB.Behavior.Code, res.UB.Msg)
			}
			if res.Err != nil {
				verdict += " err=" + res.Err.Error()
			}
			return verdict, ub
		}
		tv, tu := run("tree")
		vv, vu := run("vm")
		if tv != vv || tu != vu {
			t.Fatalf("engines diverged on %q:\n  tree: %s | UB %s\n  vm:   %s | UB %s", src, tv, tu, vv, vu)
		}
	})
}
