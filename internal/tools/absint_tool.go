package tools

import (
	"context"
	"time"

	"repro/internal/absint"
	"repro/internal/obs"
	"repro/internal/sema"
)

// aiTool is the abstract-interpretation Value Analysis: instead of running
// the program (the "C interpreter mode" the paper's Frama-C comparison
// used, modeled by ValueAnalysis), it covers all executions with an
// interval × points-to domain and flags every alarm. Sound on what it
// models, it may also alarm on defined programs — the classic trade-off
// the ablation in bench_test.go quantifies.
type aiTool struct {
	cfg Config
}

// ValueAnalysisAI returns the abstract-interpretation variant of the value
// analysis.
func ValueAnalysisAI(cfg Config) Tool { return &aiTool{cfg: cfg} }

// Name implements Tool.
func (t *aiTool) Name() string { return "V. Analysis (AI)" }

// AnalyzeProgram implements Tool. The abstract interpretation is not
// cancelable mid-run; ctx only carries the trace.
func (t *aiTool) AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) Report {
	return guarded(ctx, t.Name(), t.cfg, file, func(ctx context.Context, _ *obs.Flight) Report {
		return t.analyze(prog)
	})
}

func (t *aiTool) analyze(prog *sema.Program) Report {
	start := time.Now()
	res := absint.Analyze(prog)
	rep := Report{RunDuration: time.Since(start)}
	if len(res.Alarms) > 0 {
		rep.Verdict = Flagged
		rep.Detail = res.Alarms[0].String()
		return rep
	}
	if res.Incomplete {
		rep.Verdict = Inconclusive
		rep.Detail = "analysis incomplete (unsupported construct)"
		return rep
	}
	rep.Verdict = Accepted
	return rep
}
