package interp

// White-box benchmarks for the observability hooks. These live inside the
// package so they can time step()/seqPoint() directly: whole-program runs
// allocate for frames and stores regardless of observers, which would
// drown the signal the acceptance gate cares about — that the nil-observer
// path adds no allocations and (near) no time to the hot step loop.

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/token"
	"repro/internal/ub"
)

// benchInterp builds an interpreter the way New does, with one live
// activation so seqPoint() has a sequence state to flush.
func benchInterp(tb testing.TB, o obs.Observer) *Interp {
	tb.Helper()
	prog, err := driver.Compile("int main(void){ return 0; }", "bench.c", driver.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	in := New(prog, Options{Observer: o, Budget: Budget{MaxSteps: 1 << 62}})
	in.pushSeq()
	return in
}

// TestNilObserverPathAllocs is the acceptance gate: with no observer
// attached, every emission site must be a single nil check — zero
// allocations on the step loop, sequence points, memory-event and
// check-pass hooks.
func TestNilObserverPathAllocs(t *testing.T) {
	in := benchInterp(t, nil)
	pos := token.Pos{File: "bench.c", Line: 1, Col: 1}
	o := &mem.Object{}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := in.step(pos); err != nil {
			t.Fatal(err)
		}
		in.seqPoint()
		in.obsCheckPass(ub.DivByZero, pos)
		in.obsMem(obs.EvRead, o, 0, 4, pos)
		in.obsBuiltin("printf", pos)
	})
	if allocs != 0 {
		t.Fatalf("nil-observer path allocates %.1f times per step, want 0", allocs)
	}
}

// TestMetricsObserverPathAllocs documents the stronger property the
// scratch-event design buys: even with a metrics observer attached the
// counter path stays allocation-free (the Event is reused, Metrics only
// bumps atomics for these kinds).
func TestMetricsObserverPathAllocs(t *testing.T) {
	in := benchInterp(t, obs.NewMetrics())
	pos := token.Pos{File: "bench.c", Line: 1, Col: 1}
	o := &mem.Object{}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := in.step(pos); err != nil {
			t.Fatal(err)
		}
		in.seqPoint()
		in.obsCheckPass(ub.DivByZero, pos)
		in.obsMem(obs.EvRead, o, 0, 4, pos)
	})
	if allocs != 0 {
		t.Fatalf("metrics path allocates %.1f times per step, want 0", allocs)
	}
}

// BenchmarkObserverOverhead compares the hot paths with and without an
// observer. step-nil is the number the <2% budget is judged against: it
// must stay within noise of the pre-observability step loop (one extra
// nil check).
func BenchmarkObserverOverhead(b *testing.B) {
	pos := token.Pos{File: "bench.c", Line: 1, Col: 1}

	b.Run("step-nil", func(b *testing.B) {
		in := benchInterp(b, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.step(pos); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("step-metrics", func(b *testing.B) {
		in := benchInterp(b, obs.NewMetrics())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.step(pos); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Whole-program runs: the end-to-end cost of metrics on a loop-heavy
	// case, the shape a suite run actually pays.
	src := `int main(void){ int i; int s = 0; for (i = 0; i < 1000; i++) s += i; return 0; }`
	prog, err := driver.Compile(src, "bench.c", driver.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("run-nil", func(b *testing.B) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := Run(prog, Options{}); res.UB != nil || res.Err != nil {
				b.Fatalf("ub=%v err=%v", res.UB, res.Err)
			}
		}
	})
	b.Run("run-metrics", func(b *testing.B) {
		m := obs.NewMetrics()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if res := Run(prog, Options{Observer: m}); res.UB != nil || res.Err != nil {
				b.Fatalf("ub=%v err=%v", res.UB, res.Err)
			}
		}
	})
}
