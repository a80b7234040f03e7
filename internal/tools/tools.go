// Package tools defines the analysis tools compared in the paper's §5:
// the semantics-based checker (kcc) and reimplementations of the detection
// principles of Valgrind, CheckPointer, and Frama-C's Value Analysis.
//
// Every tool analyzes one self-contained C program and renders a Verdict.
// All four are dynamic analyses (as the paper notes, "all of the tools we
// tested can be considered dynamic analysis tools"): they share the
// abstract machine of internal/interp and differ in their check Profile —
// which mirrors reality, where the tools share the x86 machine and differ
// in what their instrumentation can see.
package tools

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sema"
	"repro/internal/ub"
)

// SiteAnalyze is the fault-injection site fired at the top of every tool
// analysis, inside its containment boundary; the unit is the case's file
// name.
var SiteAnalyze = fault.RegisterSite("tools.analyze")

// Verdict classifies a tool's result on one program.
type Verdict int

// Verdicts.
const (
	// Accepted: the tool ran the program and reported nothing.
	Accepted Verdict = iota
	// Flagged: the tool reported undefined behavior.
	Flagged
	// Crashed: the program died (SIGFPE/SIGSEGV) without a diagnosis —
	// not a detection (Figure 2 scores Valgrind 0% on division by zero).
	Crashed
	// Inconclusive: compile failure, budget exhaustion, or other
	// non-verdict.
	Inconclusive
	// Timeout: the analysis' context deadline expired; it bounds the
	// compile and the run together (see Analyze). Distinct from Cancelled
	// so a slow case is never confused with an operator stopping the
	// whole suite.
	Timeout
	// InternalError: the pipeline itself panicked on this case; the panic
	// was contained (Report.Fault carries the stack) and the run went on.
	InternalError
	// Cancelled: the surrounding run's context was cancelled while this
	// case was executing.
	Cancelled
	// Skipped: the case never ran (its run was cancelled while it was
	// still queued).
	Skipped
)

func (v Verdict) String() string {
	switch v {
	case Accepted:
		return "accepted"
	case Flagged:
		return "flagged"
	case Crashed:
		return "crashed"
	case Timeout:
		return "timeout"
	case InternalError:
		return "internal-error"
	case Cancelled:
		return "cancelled"
	case Skipped:
		return "skipped"
	default:
		return "inconclusive"
	}
}

// ParseVerdict is the inverse of String.
func ParseVerdict(s string) (Verdict, error) {
	switch s {
	case "accepted":
		return Accepted, nil
	case "flagged":
		return Flagged, nil
	case "crashed":
		return Crashed, nil
	case "inconclusive":
		return Inconclusive, nil
	case "timeout":
		return Timeout, nil
	case "internal-error":
		return InternalError, nil
	case "cancelled":
		return Cancelled, nil
	case "skipped":
		return Skipped, nil
	}
	return Inconclusive, fmt.Errorf("unknown verdict %q", s)
}

// MarshalJSON renders the verdict in its string form ("flagged"), the shape
// the canonical report schema uses.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return json.Marshal(v.String())
}

// UnmarshalJSON implements the round trip.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseVerdict(s)
	if err != nil {
		return err
	}
	*v = parsed
	return nil
}

// Report is a tool's result on one program.
//
// Wall time is split so that shared frontend work is never mis-attributed:
// CompileDuration is frontend time charged to this report by its caller
// (zero unless the caller compiled for this report alone; a shared
// cache accounts its compiles in its own Stats), and RunDuration is the
// tool's own analysis.
type Report struct {
	Verdict  Verdict
	UB       *ub.Error // when Flagged
	Detail   string
	ExitCode int
	// CompileDuration is the frontend time charged to this analysis.
	CompileDuration time.Duration
	// RunDuration is the tool's own analysis time (the §5.1.2 cost).
	RunDuration time.Duration
	// Metrics is the execution-metrics snapshot of this analysis, present
	// only when Config.Metrics was set; a contained panic counts in its
	// Faults.
	Metrics *obs.Snapshot
	// Fault carries the contained panic when Verdict is InternalError.
	Fault *fault.InternalError
	// Trail is the flight-recorder tail: the last obs.DefaultFlightEvents
	// events the abstract machine emitted before this analysis was
	// quarantined (contained panic), timed out, or was cancelled. Present
	// only when Config.Injector armed the recorder and the verdict is one
	// of those three.
	Trail []string
	// Transient marks a failure classified as non-deterministic (worth a
	// retry); the runner's retry policy reads it.
	Transient bool
	// Retried marks a report produced by a retry after a transient failure.
	Retried bool
}

// Tool analyzes C programs.
//
// AnalyzeProgram analyzes an already-compiled translation unit, so a caller
// holding one immutable *sema.Program (see the contract on sema.Program)
// can fan it out to several tools, or several goroutines, paying for the
// frontend once. It honors ctx inside the interpretation loop, so
// cancellation stops a case mid-run. Analyze is the one way from source
// to report.
type Tool interface {
	Name() string
	AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) Report
}

// Analyze compiles src through cache and runs t's AnalyzeProgram on the
// program. It is the one place a compile failure becomes a report: a
// contained panic keeps its InternalError verdict, and any other compile
// error is Inconclusive with a "compile: " detail and no run time.
//
// ctx's deadline is the analysis' only watchdog, and it bounds compile and
// run together. The compile is shared through the cache and runs to
// completion; when ctx has ended by then, the report is Timeout (or
// Cancelled) and nothing runs. The report's CompileDuration stays zero:
// the cache's Stats account the compile.
func Analyze(ctx context.Context, cache *driver.Cache, t Tool, src, file string, opts driver.Options) Report {
	prog, err := cache.CompileCtx(ctx, src, file, opts)
	if err != nil {
		rep := ReportFromError(err)
		if rep.Verdict == Inconclusive {
			rep.Detail = "compile: " + err.Error()
		}
		return rep
	}
	if err := ctx.Err(); err != nil {
		return ReportFromError(err)
	}
	return t.AnalyzeProgram(ctx, prog, file)
}

// ReportFromError classifies a pipeline error into the verdict taxonomy:
// contained panics become InternalError (with the captured stack), deadline
// expiry becomes Timeout, run cancellation becomes Cancelled, and anything
// else is Inconclusive — marked Transient when the fault layer says the
// failure is non-deterministic.
func ReportFromError(err error) Report {
	if ie, ok := fault.AsInternal(err); ok {
		return Report{Verdict: InternalError, Detail: ie.Error(), Fault: ie}
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Report{Verdict: Timeout, Detail: err.Error()}
	case errors.Is(err, context.Canceled):
		return Report{Verdict: Cancelled, Detail: err.Error()}
	}
	return Report{Verdict: Inconclusive, Detail: err.Error(), Transient: fault.IsTransient(err)}
}

// Config bounds and instruments tool executions.
type Config struct {
	// Budget bounds each execution; zero fields take interp.DefaultBudget
	// values.
	Budget interp.Budget
	// Metrics enables per-analysis metrics collection: each Report carries
	// an obs.Snapshot of the run.
	Metrics bool
	// Observer additionally receives the raw event stream (tracing). It
	// composes with Metrics via obs.Multi.
	Observer obs.Observer
	// Injector, when set, fires the tools.analyze site before each
	// analysis and is handed to the interpreter (interp.step site). It also
	// arms the per-analysis flight recorder behind Report.Trail: a run
	// that can fault gets a post-mortem, a fault-free run pays nothing.
	Injector *fault.Injector
}

// profileTool runs programs on the shared abstract machine under a
// detection profile.
type profileTool struct {
	name string
	prof *interp.Profile
	cfg  Config
	// staticChecks reports the frontend's statically detected UB (only
	// the semantics-based tool does translation-time checking).
	staticChecks bool
}

// Name implements Tool.
func (t *profileTool) Name() string { return t.name }

// AnalyzeProgram implements Tool. It is the fault-containment boundary of
// every analysis: it fires the tools.analyze injection site and converts a
// panic anywhere in the analysis into an InternalError report (an EvFault
// event on the analysis' observer) — one berserk case must not take down
// the worker that ran it.
//
// It is also the observability boundary: the one per-analysis observer is
// Config.Observer, the metrics collector (Config.Metrics) and, when
// Config.Injector is set, a flight recorder of the last
// obs.DefaultFlightEvents events. The "interp" span brackets the whole
// analysis (annotated with tool, file, verdict, and the fired UB behavior
// when one fires). However the analysis ends, the report's RunDuration,
// Metrics and — when the case is quarantined, times out, or is cancelled —
// Trail are set here.
func (t *profileTool) AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) Report {
	start := time.Now()
	ctx, sp := obs.StartSpan(ctx, "interp")
	// Each collector joins the observer only when armed: a typed-nil
	// pointer in obs.Multi would defeat the interpreter's nil-observer
	// fast path.
	var m *obs.Metrics
	var fr *obs.Flight
	var mo, fo obs.Observer
	if t.cfg.Metrics {
		m = obs.NewMetrics()
		mo = m
	}
	if t.cfg.Injector != nil {
		fr = obs.NewFlight(obs.DefaultFlightEvents)
		fo = fr
	}
	observer := obs.Multi(t.cfg.Observer, mo, fo)

	var rep Report
	err := fault.Guard(fault.StageAnalyze, file, func() error {
		if err := t.cfg.Injector.Fire(SiteAnalyze, file); err != nil {
			return err
		}
		rep = t.analyze(ctx, prog, observer)
		return nil
	})
	if err != nil {
		rep = ReportFromError(err)
		if ie, ok := fault.AsInternal(err); ok && observer != nil {
			observer.Event(&obs.Event{Kind: obs.EvFault, Name: ie.Stage, Detail: file})
		}
	}
	rep.RunDuration = time.Since(start)
	if m != nil {
		rep.Metrics = m.Snapshot()
	}
	if fr != nil {
		switch rep.Verdict {
		case InternalError, Timeout, Cancelled:
			rep.Trail = fr.Lines()
		}
	}
	if sp.Recording() {
		sp.SetAttr("tool", t.name)
		sp.SetAttr("file", file)
		sp.SetAttr("verdict", rep.Verdict.String())
		if rep.UB != nil && rep.UB.Behavior != nil {
			sp.SetAttr("ub", obs.CheckKey(rep.UB.Behavior.Code))
		}
		sp.End()
	}
	return rep
}

// analyze runs prog under the tool's profile and maps the result to a
// verdict.
func (t *profileTool) analyze(ctx context.Context, prog *sema.Program, observer obs.Observer) Report {
	if t.staticChecks && len(prog.StaticUB) > 0 {
		return Report{Verdict: Flagged, UB: prog.StaticUB[0], Detail: prog.StaticUB[0].Error()}
	}
	res := interp.Run(prog, interp.Options{
		Profile:  t.prof,
		Budget:   t.cfg.Budget,
		Context:  ctx,
		Observer: observer,
		Injector: t.cfg.Injector,
	})
	switch {
	case res.UB != nil:
		return Report{Verdict: Flagged, UB: res.UB, Detail: res.UB.Error(), ExitCode: res.ExitCode}
	case res.Err != nil:
		if _, crashed := res.Err.(*interp.CrashError); crashed {
			return Report{Verdict: Crashed, Detail: res.Err.Error()}
		}
		return ReportFromError(res.Err)
	default:
		return Report{Verdict: Accepted, ExitCode: res.ExitCode}
	}
}

// KCC is the semantics-based undefinedness checker: the full profile plus
// translation-time static checks.
func KCC(cfg Config) Tool {
	return &profileTool{name: "kcc", prof: interp.KCCProfile(), cfg: cfg, staticChecks: true}
}

// Memcheck models a Valgrind-style binary-instrumentation memory checker.
func Memcheck(cfg Config) Tool {
	return &profileTool{name: "Valgrind", prof: interp.MemcheckProfile(), cfg: cfg}
}

// CheckPointer models a pointer-metadata instrumentation checker.
func CheckPointer(cfg Config) Tool {
	return &profileTool{name: "CheckPointer", prof: interp.CheckPointerProfile(), cfg: cfg}
}

// ValueAnalysis models an abstract-interpretation value analysis run in C
// interpreter mode.
func ValueAnalysis(cfg Config) Tool {
	return &profileTool{name: "V. Analysis", prof: interp.ValueAnalysisProfile(), cfg: cfg}
}

// All returns the four tools of Figure 2/3, in the paper's column order.
func All(cfg Config) []Tool {
	return []Tool{Memcheck(cfg), CheckPointer(cfg), ValueAnalysis(cfg), KCC(cfg)}
}
