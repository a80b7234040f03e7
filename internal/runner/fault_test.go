package runner

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/suite"
	"repro/internal/tools"
)

func firstGoodCase(t *testing.T, s *suite.Suite) (string, int) {
	t.Helper()
	for i, c := range s.Cases {
		if !c.Bad {
			return c.Name, i
		}
	}
	t.Fatal("suite has no good case")
	return "", 0
}

// TestInjectedPanicContainment is the PR's acceptance criterion: a panic
// injected at each registered fault site during a parallel (-j 8) Figure-2
// run crashes zero workers — the run completes, exactly the targeted
// case×tool cell reports internal-error with a captured stack in the
// manifest, every other cell is unchanged, and the derived Figure-2 table
// is byte-for-byte identical (timing lines aside) because the target is a
// defined control case.
func TestInjectedPanicContainment(t *testing.T) {
	s := suite.Juliet()
	target, targetIdx := firstGoodCase(t, s)

	clean, err := RunMatrix(s, tools.All(tools.Config{}), Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	cleanFig := stripTimingLines(Figure2From(s, tools.All(tools.Config{}), clean).Render())

	sites := map[string]string{
		driver.SiteCompile: fault.StageCompile,
		tools.SiteAnalyze:  fault.StageAnalyze,
		interp.SiteStep:    fault.StageAnalyze,
		SiteAnalyze:        fault.StageRunner,
	}
	for site, wantStage := range sites {
		t.Run(site, func(t *testing.T) {
			in := fault.NewInjector(1, fault.Rule{
				Site: site, Kind: fault.KindPanic, Msg: "injected@" + site,
				Match: target, Count: 1,
			})
			ts := tools.All(tools.Config{Injector: in})
			m, err := RunMatrix(s, ts, Options{Parallelism: 8, Injector: in})
			if err != nil {
				t.Fatalf("run did not complete: %v", err)
			}
			var hits int
			for ci := range s.Cases {
				for ti := range ts {
					r := m.Reports[ci][ti]
					if r.Verdict == tools.InternalError {
						hits++
						if ci != targetIdx {
							t.Errorf("internal-error in case %q, want only %q", s.Cases[ci].Name, target)
						}
						if r.Fault == nil || r.Fault.Stage != wantStage || r.Fault.Stack == "" {
							t.Errorf("fault = %+v, want stage %q with stack", r.Fault, wantStage)
						}
						continue
					}
					if r.Verdict != clean.Reports[ci][ti].Verdict {
						t.Errorf("cell (%s, %s) = %v, clean run had %v",
							s.Cases[ci].Name, ts[ti].Name(), r.Verdict, clean.Reports[ci][ti].Verdict)
					}
				}
			}
			if hits != 1 {
				t.Errorf("%d internal-error cells, want exactly 1", hits)
			}
			if len(m.Failures) != 1 || m.Failures[0].Case != target ||
				m.Failures[0].Stack == "" || m.Failures[0].Stage != wantStage {
				t.Errorf("failure manifest = %+v, want one %s-stage entry for %q with stack",
					m.Failures, wantStage, target)
			}
			if got := stripTimingLines(Figure2From(s, ts, m).Render()); got != cleanFig {
				t.Errorf("Figure 2 changed under injection:\n--- clean ---\n%s\n--- injected ---\n%s", cleanFig, got)
			}
		})
	}
}

// TestMidCaseCancellation asserts the cancellation taxonomy: cancelling
// the run while a case is interpreting yields Cancelled for the in-flight
// cell and Skipped (not failed) for every queued cell. The injector's
// delay site makes the interleaving deterministic: with one worker, the
// delay fires inside the target cell's interpretation and the OnFire hook
// cancels the run at that exact point.
func TestMidCaseCancellation(t *testing.T) {
	s := suite.Juliet()
	target, targetIdx := firstGoodCase(t, s)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	in := fault.NewInjector(0, fault.Rule{
		Site: interp.SiteStep, Kind: fault.KindDelay, Delay: time.Millisecond,
		Match: target, Count: 1,
	})
	in.OnFire(func(fault.Hit) { cancel() })
	ts := tools.All(tools.Config{Injector: in})
	m, err := RunMatrix(s, ts, Options{Parallelism: 1, Context: ctx, Injector: in})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m == nil {
		t.Fatal("cancelled run returned no partial matrix")
	}
	// With one worker, cells run in feed order; the delay fires in the
	// target case's first tool, so that cell is Cancelled and everything
	// after it never starts.
	targetCell := m.Reports[targetIdx][0]
	if targetCell.Verdict != tools.Cancelled {
		t.Errorf("in-flight cell = %v (%s), want cancelled", targetCell.Verdict, targetCell.Detail)
	}
	for ci := range s.Cases {
		for ti := range ts {
			r := m.Reports[ci][ti]
			before := ci < targetIdx || (ci == targetIdx && ti == 0)
			if before {
				if r.Verdict == tools.Skipped {
					t.Errorf("cell (%d,%d) skipped but ran before the cancellation point", ci, ti)
				}
			} else if r.Verdict != tools.Skipped {
				t.Errorf("queued cell (%s, %s) = %v, want skipped", s.Cases[ci].Name, ts[ti].Name(), r.Verdict)
			}
		}
	}
	if m.Skipped == 0 {
		t.Error("no skipped cells recorded")
	}
	// Cancelled and skipped cells both land in the run accounting: the
	// manifest carries the in-flight cell.
	found := false
	for _, f := range m.Failures {
		if f.Case == target && f.Verdict == tools.Cancelled {
			found = true
		}
	}
	if !found {
		t.Errorf("manifest %+v missing the cancelled in-flight cell", m.Failures)
	}
}

// TestTransientRetry asserts the graceful-degradation policy: a transient
// failure is retried once (after invalidating the cached compile) and the
// retry's result is marked Retried; the suite report counts it.
func TestTransientRetry(t *testing.T) {
	s := suite.Juliet()
	target, targetIdx := firstGoodCase(t, s)
	in := fault.NewInjector(0, fault.Rule{
		Site: driver.SiteCompile, Kind: fault.KindTransient, Msg: "blip",
		Match: target, Count: 1,
	})
	ts := tools.All(tools.Config{})
	m, err := RunMatrix(s, ts, Options{Parallelism: 8, Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	if m.Retried != 1 {
		t.Errorf("retried cells = %d, want 1", m.Retried)
	}
	var retried *tools.Report
	for ti := range ts {
		if m.Reports[targetIdx][ti].Retried {
			retried = &m.Reports[targetIdx][ti]
		}
	}
	if retried == nil {
		t.Fatal("no retried cell in the target row")
	}
	if retried.Verdict != tools.Accepted {
		t.Errorf("retried cell = %v (%s), want accepted after retry", retried.Verdict, retried.Detail)
	}
	if len(m.Failures) != 0 {
		t.Errorf("manifest %+v not empty: a successful retry is not a failure", m.Failures)
	}
}

// TestFlightTrailInManifest asserts the flight-recorder plumbing end to
// end: an armed injector arms the recorder, so a panic injected
// mid-interpretation leaves a non-empty event tail on the quarantined
// cell's report AND on its failure-manifest entry — the "last things the machine did" that make
// a quarantine debuggable. Cells that finish normally carry no trail.
func TestFlightTrailInManifest(t *testing.T) {
	s := suite.Juliet()
	target, targetIdx := firstGoodCase(t, s)
	in := fault.NewInjector(1, fault.Rule{
		Site: interp.SiteStep, Kind: fault.KindPanic, Msg: "injected@step",
		Match: target, Count: 1,
	})
	ts := tools.All(tools.Config{Injector: in})
	m, err := RunMatrix(s, ts, Options{Parallelism: 8, Injector: in})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Failures) != 1 {
		t.Fatalf("failures = %+v, want exactly the injected cell", m.Failures)
	}
	f := m.Failures[0]
	if f.Case != target || f.Verdict != tools.InternalError {
		t.Fatalf("failure = %+v, want internal-error on %q", f, target)
	}
	if len(f.Events) == 0 {
		t.Fatal("quarantined cell has no flight-recorder tail in the manifest")
	}
	// The tail ends with the contained fault itself.
	last := f.Events[len(f.Events)-1]
	if !strings.Contains(last, "FAULT") {
		t.Errorf("tail does not end with the fault event: %q", last)
	}
	for ci := range s.Cases {
		for ti := range ts {
			if r := m.Reports[ci][ti]; ci != targetIdx && len(r.Trail) != 0 {
				t.Fatalf("healthy cell (%s, %s) carries a trail", s.Cases[ci].Name, ts[ti].Name())
			}
		}
	}
}

// TestCaseTimeoutVerdict asserts the watchdog taxonomy: a cell that
// exceeds Options.CaseTimeout reports Timeout — not Cancelled, not a
// crashed worker — and the rest of the run is unaffected.
func TestCaseTimeoutVerdict(t *testing.T) {
	s := &suite.Suite{Name: "timeout-probe", Cases: []suite.Case{
		{Name: "spin", Bad: true, Source: `
int main(void) {
	volatile long n = 0;
	for (long i = 0; i < 100000000; i++) n += i;
	return 0;
}
`},
		{Name: "quick", Bad: false, Source: `int main(void) { return 0; }`},
	}}
	ts := []tools.Tool{tools.KCC(tools.Config{})}
	m, err := RunMatrix(s, ts, Options{Parallelism: 1, CaseTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if v := m.Reports[0][0].Verdict; v != tools.Timeout {
		t.Errorf("slow cell = %v (%s), want timeout", v, m.Reports[0][0].Detail)
	}
	if v := m.Reports[1][0].Verdict; v != tools.Accepted {
		t.Errorf("quick cell = %v, want accepted (timeout must be per-case)", v)
	}
	if len(m.Failures) != 1 || m.Failures[0].Verdict != tools.Timeout {
		t.Errorf("manifest = %+v, want one timeout entry", m.Failures)
	}
}
