package search_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/interp"
	"repro/internal/search"
	"repro/internal/suite"
)

// porCostPerDecision explores prog with POR on and returns the bytes and
// heap objects allocated per scheduler decision logged across all runs,
// and the decisions in one run.
func porCostPerDecision(t *testing.T, src string, maxRuns int) (bytes, objects float64, perRun int) {
	t.Helper()
	prog := compile(t, src)
	tr := &interp.Trace{}
	interp.Run(prog, interp.Options{Sched: tr})
	perRun = len(tr.Log)

	opts := search.Options{MaxRuns: maxRuns, Parallelism: 1, POR: true}
	search.Explore(context.Background(), prog, opts) // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := search.Explore(context.Background(), prog, opts)
	runtime.ReadMemStats(&after)
	// Every order of the same recursion makes the same calls, so each run
	// logs as many decisions as the plain leftmost run.
	decisions := float64(res.Runs * perRun)
	return float64(after.TotalAlloc-before.TotalAlloc) / decisions,
		float64(after.Mallocs-before.Mallocs) / decisions, perRun
}

const fibR = `static int fibR(int n){return n<2?n:fibR(n-1)+fibR(n-2);} int main(void){return fibR(%d)&1;}`

// TestPORBookkeepingLinear holds the explorer's POR bookkeeping to a
// constant cost per logged decision: a recursion whose runs log 18× more
// decisions may not cost more than 1.5× as many bytes per decision. The
// choice points of a deep recursion nest as deep as the call tree, so a
// registry keyed by the whole pick path, or a recorder that attributes
// every access to every open point, scales with the square of the trace.
func TestPORBookkeepingLinear(t *testing.T) {
	small, _, nSmall := porCostPerDecision(t, fmt.Sprintf(fibR, 8), 16)
	large, _, nLarge := porCostPerDecision(t, fmt.Sprintf(fibR, 14), 16)
	t.Logf("fibR(8): %d decisions/run, %.0f B/decision; fibR(14): %d decisions/run, %.0f B/decision (%.2fx)",
		nSmall, small, nLarge, large, large/small)
	if large > 1.5*small {
		t.Errorf("bytes per decision grew %.2fx from %d to %d decisions per run (%.0f -> %.0f B), want at most 1.5x",
			large/small, nSmall, nLarge, small, large)
	}
}

// TestExploreAllocsPerDecision pins the search's allocation count: heap
// objects per logged decision on fibR(14) at a cap of 16 runs. The
// interpreter's calls still allocate (frames, locals, objects), but the
// scheduling path, the recorder and the decision tree do not allocate per
// decision. Measured 1.98 objects per decision (6.54 when each choice
// point built its order in fresh slices, each run a fresh recorder and
// each call a fresh sequence-point state); the pin sits about 25% above.
func TestExploreAllocsPerDecision(t *testing.T) {
	const pin = 2.5
	_, objects, perRun := porCostPerDecision(t, fmt.Sprintf(fibR, 14), 16)
	t.Logf("fibR(14): %d decisions/run, %.2f objects/decision", perRun, objects)
	if objects > pin {
		t.Errorf("%.2f heap objects per logged decision, want at most %.1f", objects, pin)
	}
}

var benchResult search.Result

// BenchmarkExplorePORRecursive is one capped POR search over the
// recursive torture program that dominates the explore workload.
func BenchmarkExplorePORRecursive(b *testing.B) { benchExploreRecursive(b, 1) }

// BenchmarkExplorePORRecursiveParallel is the same search on two workers,
// the explore workload's shape on a 2-vCPU host: costs the workers share,
// such as the coverage ledger's counters, show up only here.
func BenchmarkExplorePORRecursiveParallel(b *testing.B) { benchExploreRecursive(b, 2) }

func benchExploreRecursive(b *testing.B, par int) {
	var src string
	for _, tc := range suite.Torture() {
		if tc.Name == "fibonacci_iterative_vs_recursive" {
			src = tc.Source
		}
	}
	if src == "" {
		b.Fatal("torture program fibonacci_iterative_vs_recursive not found")
	}
	prog := compile(b, src)
	opts := search.Options{MaxRuns: 16, Parallelism: par, POR: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = search.Explore(context.Background(), prog, opts)
	}
}
