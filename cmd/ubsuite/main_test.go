package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/runner"
	"repro/internal/tools"
)

// TestContainmentGate is the make-check gate for the fault-containment
// layer: for every registered fault site, a panic injected into a full
// suite run must leave the process exit code 0 (graceful degradation is
// the default contract) with the failure recorded in the JSON report; the
// same run under -strict must exit non-zero.
//
// The driver.compile site runs across a schedule matrix — -j 1,2,4,8, each
// under GOMAXPROCS=1 and 2 — because the four tools' cells of a case share
// one single-flighted compile: a contained panic must fail exactly one
// cell however many of them were waiting on the panicking compile.
func TestContainmentGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the ubsuite binary")
	}
	bin := filepath.Join(t.TempDir(), "ubsuite")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	sites := []string{
		driver.SiteCompile,
		tools.SiteAnalyze,
		interp.SiteStep,
		runner.SiteAnalyze,
	}
	for _, site := range sites {
		t.Run(site, func(t *testing.T) {
			if site != driver.SiteCompile {
				checkContained(t, exec.Command(bin, "-suite", "juliet", "-json", "-inject", site+"=panic*1"), site)
				return
			}
			for _, j := range []string{"1", "2", "4", "8"} {
				for _, procs := range []string{"1", "2"} {
					t.Run("j="+j+",GOMAXPROCS="+procs, func(t *testing.T) {
						cmd := exec.Command(bin, "-suite", "juliet", "-json", "-j", j, "-inject", site+"=panic*1")
						cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
						checkContained(t, cmd, site)
					})
				}
			}
		})
	}

	// -strict turns recorded failures into a non-zero exit.
	cmd := exec.Command(bin, "-suite", "juliet", "-json", "-strict",
		"-inject", runner.SiteAnalyze+"=panic*1")
	if err := cmd.Run(); err == nil {
		t.Error("-strict run with an injected panic exited 0, want non-zero")
	}
}

// checkContained runs one suite with a single injected panic and asserts
// it exits 0 with exactly one internal-error cell carrying a stack. A panic
// inside a tool's analysis (tools.analyze, interp.step) is one fault in
// that tool's metrics; one in the compile or runner stage is outside every
// tool's analysis and counts in none.
func checkContained(t *testing.T, cmd *exec.Cmd, site string) {
	t.Helper()
	stdout, err := cmd.Output()
	if err != nil {
		t.Fatalf("exit status = %v, want 0: the suite must survive a panic at %s", err, site)
	}
	var rep runner.SuiteReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if rep.Schema != runner.Schema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if len(rep.Failures) == 0 {
		t.Fatal("no failure recorded in the JSON report")
	}
	f := rep.Failures[0]
	if f.Verdict != tools.InternalError || f.Stack == "" {
		t.Errorf("failure = %+v, want internal-error with captured stack", f)
	}
	// Exactly one cell was hit; every other cell carries a verdict.
	var internal int
	for _, c := range rep.Cases {
		for _, r := range c.Results {
			if r.Verdict == tools.InternalError {
				internal++
			}
		}
	}
	if internal != 1 {
		t.Errorf("%d internal-error cells, want 1 (*1 caps the injection)", internal)
	}
	var faults, want int64
	for _, a := range rep.Aggregate {
		if a.Metrics != nil {
			faults += a.Metrics.Faults
		}
	}
	if site == tools.SiteAnalyze || site == interp.SiteStep {
		want = 1
	}
	if faults != want {
		t.Errorf("per-tool metrics count %d faults, want %d", faults, want)
	}
}
