package tools

import (
	"context"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/sema"
)

// searchTool is kcc in search mode: instead of one evaluation order, it
// explores all of them (paper §2.5.2 — "any tool seeking to identify all
// undefined behaviors must search all possible evaluation strategies").
type searchTool struct {
	cfg     Config
	maxRuns int
}

// KCCSearch returns the order-searching variant of the semantics-based
// checker.
func KCCSearch(cfg Config) Tool {
	return &searchTool{cfg: cfg, maxRuns: 256}
}

// Name implements Tool.
func (t *searchTool) Name() string { return "kcc -search" }

// AnalyzeProgram implements Tool. ctx cancels the search itself
// (in-flight runs stop at the next step poll).
func (t *searchTool) AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) Report {
	return guarded(ctx, t.Name(), t.cfg, file, func(ctx context.Context, _ *obs.Flight) Report {
		return t.analyze(ctx, prog)
	})
}

func (t *searchTool) analyze(ctx context.Context, prog *sema.Program) Report {
	start := time.Now()
	if len(prog.StaticUB) > 0 {
		return Report{Verdict: Flagged, UB: prog.StaticUB[0],
			Detail: prog.StaticUB[0].Error(), RunDuration: time.Since(start)}
	}
	// Single-worker on purpose: the tool matrix already runs one tool per
	// runner cell, so parallelism lives a level up. POR makes the same
	// budget cover exponentially more of the order space.
	res := search.Explore(ctx, prog, search.Options{
		MaxRuns:       t.maxRuns,
		MaxSteps:      t.cfg.Budget.WithDefaults().MaxSteps,
		StopAtFirstUB: true,
		Parallelism:   1,
		POR:           true,
	})
	rep := Report{RunDuration: time.Since(start)}
	if u := res.UB(); u != nil {
		rep.Verdict = Flagged
		rep.UB = u
		rep.Detail = u.Error()
		return rep
	}
	for _, o := range res.Outcomes {
		if o.Err != nil {
			rep.Verdict = Inconclusive
			rep.Detail = o.Err.Error()
			return rep
		}
	}
	rep.Verdict = Accepted
	return rep
}
