package interp_test

// End-to-end tests for the UB coverage ledger: running programs through the
// public entry point must move the obs counters for exactly the behaviors
// whose checks were evaluated, identically under both engines.

import (
	"context"
	"testing"

	undefc "repro"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/ub"
	_ "repro/internal/vm" // registers the "vm" engine
)

func coverageRow(t *testing.T, code int) obs.CoverageRow {
	t.Helper()
	led := obs.CoverageSnapshot()
	for _, r := range led.Behaviors {
		if r.Code == code {
			return r
		}
	}
	t.Fatalf("behavior %d not in coverage snapshot (check-site registry missing it)", code)
	return obs.CoverageRow{}
}

func TestCoverageLedgerCountsEvaluationsAndFires(t *testing.T) {
	obs.ResetCoverage()

	// A defined division: the DivZero check is evaluated and passes.
	res := undefc.RunSource(`int main(void){ int d = 2; return 10 / d - 5; }`, "ok.c", undefc.Options{})
	if res.UB != nil || res.Err != nil {
		t.Fatalf("clean program failed: %v %v", res.UB, res.Err)
	}
	r := coverageRow(t, ub.DivByZero.Code)
	if r.Evaluated == 0 {
		t.Fatal("defined division did not count a DivByZero evaluation")
	}
	if r.Fired != 0 {
		t.Fatalf("defined division counted %d DivByZero fires", r.Fired)
	}

	// An undefined division: the same check fires.
	res = undefc.RunSource(`int main(void){ int d = 0; return 10 / d; }`, "div0.c", undefc.Options{})
	if res.UB == nil || res.UB.Behavior.Code != ub.DivByZero.Code {
		t.Fatalf("div-by-zero program verdict: %+v", res.UB)
	}
	r = coverageRow(t, ub.DivByZero.Code)
	if r.Fired != 1 {
		t.Fatalf("DivByZero fired count %d, want 1", r.Fired)
	}
	if r.Evaluated < 2 {
		t.Fatalf("DivByZero evaluated count %d, want >= 2", r.Evaluated)
	}
	if len(r.Gates) == 0 || len(r.Sites) == 0 {
		t.Fatalf("DivByZero row missing registry identity: %+v", r)
	}
}

// TestCoverageLedgerEngineAgreement pins the determinism contract behind
// `ubsuite -coverage`: both engines funnel checks through ubError /
// obsCheckPass, so a program must move the counters by the same deltas
// under "tree" and "vm".
func TestCoverageLedgerEngineAgreement(t *testing.T) {
	src := `
int main(void){
	int a[4] = {1, 2, 3, 4};
	int s = 0;
	for (int i = 0; i < 4; i++) s += a[i] << 1;
	return s / (a[0] + 1) - 3;
}
`
	deltas := make(map[string]map[int][2]int64)
	for _, engine := range []string{"tree", "vm"} {
		obs.ResetCoverage()
		res := undefc.RunSource(src, "agree.c", undefc.Options{Exec: interp.Options{Engine: engine}})
		if res.UB != nil || res.Err != nil {
			t.Fatalf("engine %s: %v %v", engine, res.UB, res.Err)
		}
		d := make(map[int][2]int64)
		for _, r := range obs.CoverageSnapshot().Behaviors {
			if r.Evaluated != 0 || r.Fired != 0 {
				d[r.Code] = [2]int64{r.Evaluated, r.Fired}
			}
		}
		if len(d) == 0 {
			t.Fatalf("engine %s evaluated no checks", engine)
		}
		deltas[engine] = d
	}
	tree, vm := deltas["tree"], deltas["vm"]
	if len(tree) != len(vm) {
		t.Fatalf("engines touched different behavior sets: tree %v, vm %v", tree, vm)
	}
	for code, tc := range tree {
		if vc, ok := vm[code]; !ok || vc != tc {
			t.Fatalf("behavior %d: tree counted %v, vm counted %v", code, tc, vm[code])
		}
	}
	obs.ResetCoverage()
}

// checkCounter tallies the check events it observes, per behavior code:
// the ground truth the ledger must match. After limit events it calls
// onLimit (which may panic or cancel the run).
type checkCounter struct {
	counts  map[int][2]int64
	seen    int
	limit   int
	onLimit func()
}

func (c *checkCounter) Event(ev *obs.Event) {
	if ev.Kind != obs.EvCheck {
		return
	}
	n := c.counts[ev.Behavior.Code]
	n[0]++
	if ev.Fired {
		n[1]++
	}
	c.counts[ev.Behavior.Code] = n
	c.seen++
	if c.seen == c.limit && c.onLimit != nil {
		c.onLimit()
	}
}

// TestCoverageLedgerExactOnEveryExit pins the per-run coverage tally's
// contract: a run adds exactly the checks it evaluated to the ledger,
// however it ends — normally, with UB, out of budget, cancelled, or by a
// panic contained above the interpreter.
func TestCoverageLedgerExactOnEveryExit(t *testing.T) {
	const loop = `int main(void){ int s = 0; for (int i = 1; i < 100000; i++) s += 10 / i; return s & 1; }`
	for _, tc := range []struct {
		name, src string
		limit     int
		onLimit   func(cancel context.CancelFunc)
		opts      interp.Options
	}{
		{name: "clean", src: `int main(void){ int d = 2; return 10 / d - 5; }`},
		{name: "ub", src: `int main(void){ int d = 0; return 10 / d; }`},
		{name: "budget", src: loop, opts: interp.Options{Budget: interp.Budget{MaxSteps: 5000}}},
		{name: "cancel", src: loop, limit: 300, onLimit: func(cancel context.CancelFunc) { cancel() }},
		{name: "panic", src: loop, limit: 300, onLimit: func(context.CancelFunc) { panic("contained") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := driver.Compile(tc.src, tc.name+".c", driver.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			c := &checkCounter{counts: map[int][2]int64{}, limit: tc.limit}
			if tc.onLimit != nil {
				c.onLimit = func() { tc.onLimit(cancel) }
			}
			opts := tc.opts
			opts.Observer = c
			opts.Context = ctx
			obs.ResetCoverage()
			func() {
				defer func() { _ = recover() }()
				interp.Run(prog, opts)
			}()
			if c.seen == 0 {
				t.Fatal("run evaluated no checks")
			}
			got := map[int][2]int64{}
			for _, r := range obs.CoverageSnapshot().Behaviors {
				if r.Evaluated != 0 || r.Fired != 0 {
					got[r.Code] = [2]int64{r.Evaluated, r.Fired}
				}
			}
			if len(got) != len(c.counts) {
				t.Fatalf("ledger %v, observed %v", got, c.counts)
			}
			for code, want := range c.counts {
				if got[code] != want {
					t.Errorf("behavior %d: ledger {evaluated, fired} = %v, observed %v", code, got[code], want)
				}
			}
		})
	}
	obs.ResetCoverage()
}

// kindsObserver records the kinds it receives and declares the ones it
// wants through obs.KindFilter.
type kindsObserver struct {
	want obs.KindSet
	got  map[obs.EventKind]int
}

func (o *kindsObserver) Event(ev *obs.Event) { o.got[ev.Kind]++ }
func (o *kindsObserver) Kinds() obs.KindSet  { return o.want }

// TestObserverKindFilter checks that the interpreter builds only the
// event kinds an observer declares, delivers every one of those, and
// still delivers every kind to an observer reached through obs.Multi
// (which declares nothing).
func TestObserverKindFilter(t *testing.T) {
	src := `int f(int x){ return x * 2; } int main(void){ int a[2] = {1, 2}; a[0] = f(a[1]) + a[0]; return a[0] - 5; }`
	prog, err := driver.Compile(src, "kinds.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, engine := range interp.Engines() {
		full := &obs.Recorder{}
		interp.Run(prog, interp.Options{Engine: engine, Observer: full})
		all := map[obs.EventKind]int{}
		for i := range full.Events {
			all[full.Events[i].Kind]++
		}

		want := obs.KindsOf(obs.EvRead, obs.EvWrite, obs.EvSeqPoint)
		sel := &kindsObserver{want: want, got: map[obs.EventKind]int{}}
		interp.Run(prog, interp.Options{Engine: engine, Observer: sel})
		for k, n := range all {
			if w := want.Has(k); w && sel.got[k] != n {
				t.Errorf("%s: %s events: got %d, want %d", engine, k, sel.got[k], n)
			} else if !w && sel.got[k] != 0 {
				t.Errorf("%s: undeclared kind %s delivered %d times", engine, k, sel.got[k])
			}
		}

		sel = &kindsObserver{want: want, got: map[obs.EventKind]int{}}
		interp.Run(prog, interp.Options{Engine: engine, Observer: obs.Multi(sel, &obs.Recorder{})})
		for k, n := range all {
			if sel.got[k] != n {
				t.Errorf("%s via Multi: %s events: got %d, want %d", engine, k, sel.got[k], n)
			}
		}
	}
}

// TestIncDecOverflowChecks pins which ++ and -- pass the signed-overflow
// check: E++ adds in the promoted type, but an unsigned char, unsigned
// short or _Bool operand cannot overflow int there, so only the three
// signed operands count as evaluations, under both engines.
func TestIncDecOverflowChecks(t *testing.T) {
	src := `
int main(void){
	unsigned char uc = 255; unsigned short us = 0; _Bool b = 1;
	signed char sc = 127; short s = -32768; int i = 0;
	uc++; us--; b++; sc++; s--; i++;
	return 0;
}
`
	for _, engine := range []string{"tree", "vm"} {
		obs.ResetCoverage()
		res := undefc.RunSource(src, "incdec.c", undefc.Options{Exec: interp.Options{Engine: engine}})
		if res.UB != nil || res.Err != nil {
			t.Fatalf("engine %s: %v %v", engine, res.UB, res.Err)
		}
		if r := coverageRow(t, ub.SignedOverflow.Code); r.Evaluated != 3 || r.Fired != 0 {
			t.Errorf("engine %s: SignedOverflow evaluated %d fired %d, want 3 and 0", engine, r.Evaluated, r.Fired)
		}
	}
	obs.ResetCoverage()
}
