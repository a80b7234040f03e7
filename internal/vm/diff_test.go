package vm_test

// The differential harness: the fidelity oracle for the "vm" engine.
// Every program of the paper's two suites (the Juliet-style Figure-2
// matrix and the authors' own per-behavior suite) runs under both
// engines and all four tool profiles; the verdict, the fired UB code and
// message, the exit code, the program output, and the full observer
// event stream must be byte-identical. The tree walker is the oracle —
// any divergence is a VM bug by definition.

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	undefc "repro"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/suite"
	_ "repro/internal/vm" // registers the "vm" engine
)

// profiles are the four tool profiles of Figure 2/3.
func profiles() map[string]*interp.Profile {
	return map[string]*interp.Profile{
		"kcc":          interp.KCCProfile(),
		"memcheck":     interp.MemcheckProfile(),
		"checkpointer": interp.CheckPointerProfile(),
		"valueanal":    interp.ValueAnalysisProfile(),
	}
}

// runOnce executes prog-from-source under one engine, capturing
// everything an observer can see.
type outcome struct {
	exit   int
	ubLine string // code + message of the fired UB, "" if none
	errStr string // non-UB error text, "" if none
	output string
	events []string
}

func runEngine(t *testing.T, src, file, engine string, prof *interp.Profile, budget int64) outcome {
	t.Helper()
	rec := &obs.Recorder{}
	res := undefc.RunSource(src, file, undefc.Options{
		Exec: interp.Options{
			Engine:   engine,
			Profile:  prof,
			Observer: rec,
			Budget:   interp.Budget{MaxSteps: budget},
		},
	})
	var o outcome
	o.exit = res.ExitCode
	o.output = res.Output
	if res.UB != nil {
		o.ubLine = fmt.Sprintf("%05d %s %s", res.UB.Behavior.Code, res.UB.Pos, res.UB.Msg)
	}
	if res.Err != nil {
		o.errStr = res.Err.Error()
	}
	o.events = rec.Lines()
	return o
}

// diffCase asserts both engines agree on one (program, profile) pair.
func diffCase(t *testing.T, name, src, file string, prof *interp.Profile) {
	t.Helper()
	const budget = 2_000_000
	tree := runEngine(t, src, file, "tree", prof, budget)
	vm := runEngine(t, src, file, "vm", prof, budget)

	if tree.exit != vm.exit {
		t.Errorf("%s: exit code tree=%d vm=%d", name, tree.exit, vm.exit)
	}
	if tree.ubLine != vm.ubLine {
		t.Errorf("%s: UB verdict diverged:\n  tree: %s\n  vm:   %s", name, tree.ubLine, vm.ubLine)
	}
	if tree.errStr != vm.errStr {
		t.Errorf("%s: error diverged:\n  tree: %s\n  vm:   %s", name, tree.errStr, vm.errStr)
	}
	if tree.output != vm.output {
		t.Errorf("%s: program output diverged:\n  tree: %q\n  vm:   %q", name, tree.output, vm.output)
	}
	if len(tree.events) != len(vm.events) {
		t.Errorf("%s: event count tree=%d vm=%d", name, len(tree.events), len(vm.events))
		// Show the first divergence for diagnosis.
	}
	n := len(tree.events)
	if len(vm.events) < n {
		n = len(vm.events)
	}
	for i := 0; i < n; i++ {
		if tree.events[i] != vm.events[i] {
			t.Errorf("%s: event %d diverged:\n  tree: %s\n  vm:   %s", name, i, tree.events[i], vm.events[i])
			break
		}
	}
}

// TestEngineDiffJuliet runs the full Figure-2 matrix (every defect class,
// every control-flow variant, good and bad twins) under both engines and
// all four profiles.
func TestEngineDiffJuliet(t *testing.T) {
	s := suite.Juliet()
	profs := profiles()
	for pname, prof := range profs {
		prof := prof
		t.Run(pname, func(t *testing.T) {
			for _, c := range s.Cases {
				diffCase(t, c.Name, c.Source, c.Name+".c", prof)
			}
		})
	}
}

// TestEngineDiffOwn runs the authors' per-behavior suite — one pair of
// programs per cataloged undefined behavior — under both engines. The
// kcc profile suffices here (the suite targets the full catalog), with a
// Memcheck pass as the representative reduced profile.
func TestEngineDiffOwn(t *testing.T) {
	s := suite.Own()
	for _, pname := range []string{"kcc", "memcheck"} {
		prof := profiles()[pname]
		t.Run(pname, func(t *testing.T) {
			for _, c := range s.Cases {
				diffCase(t, c.Name, c.Source, c.Name+".c", prof)
			}
		})
	}
}

// corpusProgram is a program of one of the interpreter's corpora.
type corpusProgram struct{ file, src string }

// corpus reads the programs of internal/interp/testdata/dir in file-name
// order.
func corpus(tb testing.TB, dir string) []corpusProgram {
	tb.Helper()
	files, err := filepath.Glob(filepath.Join("..", "interp", "testdata", dir, "*.c"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no %s programs: %v", dir, err)
	}
	progs := make([]corpusProgram, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		progs[i] = corpusProgram{filepath.Base(f), string(src)}
	}
	return progs
}

// TestEngineDiffJumps runs the jump programs, each of which enters a
// statement at a jump target (a goto's label or a switch's case inside a
// loop), under both engines and all four profiles.
func TestEngineDiffJumps(t *testing.T) { diffCorpus(t, "jumps") }

// TestEngineDiffArith runs the integer arithmetic programs (++, -- and
// compound assignments at their types' limits) under both engines and
// all four profiles.
func TestEngineDiffArith(t *testing.T) { diffCorpus(t, "arith") }

func diffCorpus(t *testing.T, dir string) {
	progs := corpus(t, dir)
	for pname, prof := range profiles() {
		t.Run(pname, func(t *testing.T) {
			for _, p := range progs {
				diffCase(t, p.file, p.src, p.file, prof)
			}
		})
	}
}

// TestEngineDiffSchedulers pins the scheduler-fidelity claim: the VM must
// make the identical Pick sequence, so a right-to-left or traced
// scheduler replays identically across engines.
func TestEngineDiffSchedulers(t *testing.T) {
	srcs := map[string]string{
		"unseq":   "int main(void) { int x = 0; return (x = 1) + (x = 2); }",
		"callord": "int g; int f(int a, int b) { return a - b; }\nint main(void) { g = 5; return f(g = 1, g = 2); }",
		"ptradd":  "int main(void) { int a[4]; int i = 1; a[i] = i; return a[1]; }",
	}
	for name, src := range srcs {
		for _, sched := range []interp.Scheduler{interp.LeftToRight{}, interp.RightToLeft{}} {
			sched := sched
			recT, recV := &obs.Recorder{}, &obs.Recorder{}
			rt := undefc.RunSource(src, name+".c", undefc.Options{Exec: interp.Options{
				Engine: "tree", Sched: sched, Observer: recT}})
			rv := undefc.RunSource(src, name+".c", undefc.Options{Exec: interp.Options{
				Engine: "vm", Sched: sched, Observer: recV}})
			if (rt.UB == nil) != (rv.UB == nil) {
				t.Fatalf("%s/%T: UB diverged: tree=%v vm=%v", name, sched, rt.UB, rv.UB)
			}
			lt, lv := recT.Lines(), recV.Lines()
			if len(lt) != len(lv) {
				t.Fatalf("%s/%T: event count tree=%d vm=%d", name, sched, len(lt), len(lv))
			}
			for i := range lt {
				if lt[i] != lv[i] {
					t.Fatalf("%s/%T: event %d: tree=%q vm=%q", name, sched, i, lt[i], lv[i])
				}
			}
		}
	}
}

// TestEngineDiffBudget pins budget fidelity: both engines must exhaust
// the step budget after the same number of steps.
func TestEngineDiffBudget(t *testing.T) {
	src := "int main(void) { int i; for (i = 0; i < 1000000; i++) { } return 0; }"
	for _, budget := range []int64{100, 1000, 9999} {
		rt := undefc.RunSource(src, "spin.c", undefc.Options{Exec: interp.Options{
			Engine: "tree", Budget: interp.Budget{MaxSteps: budget}}})
		rv := undefc.RunSource(src, "spin.c", undefc.Options{Exec: interp.Options{
			Engine: "vm", Budget: interp.Budget{MaxSteps: budget}}})
		et, ev := "", ""
		if rt.Err != nil {
			et = rt.Err.Error()
		}
		if rv.Err != nil {
			ev = rv.Err.Error()
		}
		if et != ev {
			t.Errorf("budget %d: tree err %q, vm err %q", budget, et, ev)
		}
	}
}

// TestEngineUnknown pins the selection error path.
func TestEngineUnknown(t *testing.T) {
	res := undefc.RunSource("int main(void){return 0;}", "ok.c",
		undefc.Options{Exec: interp.Options{Engine: "no-such-engine"}})
	if res.Err == nil {
		t.Fatal("expected an unknown-engine error")
	}
}
