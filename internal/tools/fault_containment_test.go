package tools

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/obs"
)

const slowLoopSrc = `
int main(void) {
	volatile long n = 0;
	for (long i = 0; i < 100000000; i++) n += i;
	return 0;
}
`

const trivialSrc = `int main(void) { return 0; }`

// checkFaultCounted asserts a contained panic is one fault in the
// analysis' own metrics, and that the flight recorder the injector armed
// ends its trail with the same fault.
func checkFaultCounted(t *testing.T, name string, rep Report) {
	t.Helper()
	if rep.Metrics == nil || rep.Metrics.Faults != 1 {
		t.Errorf("%s: metrics = %+v, want one fault", name, rep.Metrics)
	}
	if n := len(rep.Trail); n == 0 || !strings.Contains(rep.Trail[n-1], "FAULT") {
		t.Errorf("%s: trail %q does not end with the fault", name, rep.Trail)
	}
}

func TestAnalyzeProgramContainsInjectedPanic(t *testing.T) {
	prog, err := driver.Compile(trivialSrc, "t.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	in := fault.NewInjector(0, fault.Rule{Site: SiteAnalyze, Kind: fault.KindPanic, Msg: "tool exploded"})
	for _, tool := range All(Config{Metrics: true, Injector: in, Observer: rec}) {
		rep := tool.AnalyzeProgram(context.Background(), prog, "t.c")
		if rep.Verdict != InternalError {
			t.Errorf("%s: verdict = %v, want internal-error", tool.Name(), rep.Verdict)
		}
		checkFaultCounted(t, tool.Name(), rep)
		if rep.Fault == nil || rep.Fault.Stage != fault.StageAnalyze || rep.Fault.Stack == "" {
			t.Errorf("%s: fault = %+v, want analyze-stage fault with stack", tool.Name(), rep.Fault)
		}
		if !strings.Contains(rep.Detail, "tool exploded") {
			t.Errorf("%s: detail %q lost the panic value", tool.Name(), rep.Detail)
		}
	}
	var faults int
	for _, ev := range rec.Events {
		if ev.Kind == obs.EvFault {
			faults++
			if ev.Name != fault.StageAnalyze || ev.Detail != "t.c" {
				t.Errorf("fault event = %+v", ev)
			}
		}
	}
	if faults != len(All(Config{})) {
		t.Errorf("observer saw %d fault events, want %d", faults, len(All(Config{})))
	}
}

// TestAnalyzeProgramWatchdogTimeout: the caller's context deadline is the
// analysis' watchdog; a run that outlives it reports Timeout.
func TestAnalyzeProgramWatchdogTimeout(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	rep := Analyze(ctx, driver.NewCache(), KCC(Config{}), slowLoopSrc, "slow.c", driver.Options{})
	if rep.Verdict != Timeout {
		t.Fatalf("verdict = %v (%s), want timeout", rep.Verdict, rep.Detail)
	}
}

// TestAnalyzeDeadlineCoversCompile: the deadline bounds the compile too. A
// deadline that has passed by the time the program is compiled reports
// Timeout without running it, even for a program that would finish
// before the interpreter's first context poll.
func TestAnalyzeDeadlineCoversCompile(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	rep := Analyze(ctx, driver.NewCache(), KCC(Config{}), trivialSrc, "t.c", driver.Options{})
	if rep.Verdict != Timeout || rep.RunDuration != 0 {
		t.Fatalf("report = %+v, want timeout with no run", rep)
	}
}

func TestAnalyzeProgramCancellation(t *testing.T) {
	prog, err := driver.Compile(slowLoopSrc, "slow.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	rep := KCC(Config{}).AnalyzeProgram(ctx, prog, "slow.c")
	if rep.Verdict != Cancelled {
		t.Fatalf("verdict = %v (%s), want cancelled", rep.Verdict, rep.Detail)
	}
}

func TestAnalyzeProgramTransientError(t *testing.T) {
	prog, err := driver.Compile(trivialSrc, "t.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(0, fault.Rule{Site: SiteAnalyze, Kind: fault.KindTransient, Msg: "flaky"})
	rep := KCC(Config{Injector: in}).AnalyzeProgram(context.Background(), prog, "t.c")
	if rep.Verdict != Inconclusive || !rep.Transient {
		t.Fatalf("report = %+v, want transient inconclusive", rep)
	}
}

func TestInterpStepInjection(t *testing.T) {
	prog, err := driver.Compile(trivialSrc, "t.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	in := fault.NewInjector(0, fault.Rule{Site: "interp.step", Kind: fault.KindPanic, Msg: "mid-run"})
	rep := KCC(Config{Metrics: true, Injector: in}).AnalyzeProgram(context.Background(), prog, "t.c")
	if rep.Verdict != InternalError {
		t.Fatalf("verdict = %v (%s), want internal-error from a mid-interpretation panic", rep.Verdict, rep.Detail)
	}
	checkFaultCounted(t, "kcc", rep)
}
