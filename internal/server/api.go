package server

// The undefc.api/v1 wire types. Every request and response body on the
// service is one of these values, and each is plain data (no methods with
// side effects, every field a value type) so the whole API round-trips
// through encoding/json — the golden fixtures under testdata/ pin the
// shapes byte for byte. Result payloads embed the undefc.report/v1 types
// from internal/runner rather than redefining them: a verdict means the
// same thing whether it arrived in a file report or over the network.

import (
	"time"

	"repro/internal/artifact"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/ub"
	"repro/internal/vm"
)

// APISchema identifies the service wire format. Consumers should reject
// bodies whose schema they do not understand; the version suffix is bumped
// on any incompatible change.
const APISchema = "undefc.api/v1"

// AnalyzeRequest is the body of POST /v1/analyze: one self-contained C
// translation unit plus the per-request knobs. Zero values defer to the
// server's configured defaults.
type AnalyzeRequest struct {
	// Source is the full C source text (required).
	Source string `json:"source"`
	// File names the translation unit in diagnostics (default "request.c").
	File string `json:"file,omitempty"`
	// Tool selects the analysis: "kcc" (default), "valgrind",
	// "checkpointer", or "value-analysis".
	Tool string `json:"tool,omitempty"`
	// Model is the implementation-defined model: "LP64" (default),
	// "ILP32", or "INT8".
	Model string `json:"model,omitempty"`
	// Defines are command-line style macro definitions ("NAME=VALUE").
	Defines []string `json:"defines,omitempty"`
	// MaxSteps bounds the execution step budget (0 = server default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Timeout is the per-request wall-clock watchdog as a Go duration
	// string ("500ms"); it is clamped to the server's maximum.
	Timeout string `json:"timeout,omitempty"`
	// Metrics asks for the execution-metrics snapshot in the result.
	Metrics bool `json:"metrics,omitempty"`
}

// AnalyzeResponse is the body of a /v1/analyze reply. Result is the same
// shape as the undefc.report/v1 single-file result, so report consumers
// parse service replies unchanged.
type AnalyzeResponse struct {
	Schema string            `json:"schema"`
	File   string            `json:"file"`
	Result runner.ToolResult `json:"result"`
	// Coalesced marks a reply served by sharing another identical
	// in-flight request's analysis instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// QueueNS is the time the request (or the leader it coalesced onto)
	// waited for admission.
	QueueNS int64 `json:"queue_ns,omitempty"`
	// TraceID is set when this request was sampled for tracing: its span
	// tree is retrievable from GET /v1/trace/{TraceID} as Chrome
	// trace-event JSON until the trace buffer evicts it.
	TraceID string `json:"trace_id,omitempty"`
}

// BatchCase is one case of a caller-supplied batch.
type BatchCase struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	// Bad marks a case expected to contain undefined behavior (carried
	// through to the trailer's aggregate, not used to judge the verdict).
	Bad   bool   `json:"bad,omitempty"`
	Class string `json:"class,omitempty"`
}

// BatchRequest is the body of POST /v1/batch: either a named built-in
// suite or an explicit case list, analyzed by the selected tools on the
// server's worker pool. Results stream back as NDJSON (one BatchCellLine
// per completed case×tool cell, in completion order) framed by a
// BatchHeader line and a BatchTrailer line.
type BatchRequest struct {
	// Suite names a built-in suite ("juliet" or "own"); mutually
	// exclusive with Cases.
	Suite string      `json:"suite,omitempty"`
	Cases []BatchCase `json:"cases,omitempty"`
	// Tools selects the analyses (default: kcc only). Same names as
	// AnalyzeRequest.Tool.
	Tools   []string `json:"tools,omitempty"`
	Model   string   `json:"model,omitempty"`
	Defines []string `json:"defines,omitempty"`
	// Parallelism is the worker count for the case×tool matrix, clamped
	// to the server's concurrency limit (0 = 1: a batch holds one
	// admission slot, extra parallelism is an explicit request).
	Parallelism int `json:"parallelism,omitempty"`
	// CaseTimeout is the per-cell watchdog as a Go duration string.
	CaseTimeout string `json:"case_timeout,omitempty"`
	// MaxSteps bounds each cell's step budget (0 = server default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// Metrics asks for per-cell execution-metrics snapshots.
	Metrics bool `json:"metrics,omitempty"`
}

// BatchHeader is the first NDJSON line of a /v1/batch stream.
type BatchHeader struct {
	Schema string   `json:"schema"`
	Suite  string   `json:"suite,omitempty"`
	Cases  int      `json:"cases"`
	Tools  []string `json:"tools"`
}

// BatchCellLine is one streamed result: the undefc.report/v1 tool result
// plus the case it belongs to, emitted the moment the cell completes.
type BatchCellLine struct {
	Case string `json:"case"`
	runner.ToolResult
}

// BatchTrailer is the final NDJSON line of a /v1/batch stream: the run's
// frontend accounting and crash manifest summary. Error is set when the
// run itself failed (contained panic, cancellation) after the header was
// already on the wire.
type BatchTrailer struct {
	Done     bool                `json:"done"`
	Frontend runner.FrontendJSON `json:"frontend"`
	Failures int                 `json:"failures"`
	Skipped  int                 `json:"skipped,omitempty"`
	Retried  int                 `json:"retried,omitempty"`
	// TraceID echoes the batch's forwarded trace identity, so a consumer of
	// the stream — including one that only saw an Error — can fetch the
	// assembled trace without having kept the request headers around.
	TraceID string    `json:"trace_id,omitempty"`
	Error   *APIError `json:"error,omitempty"`
}

// ExploreRequest is the body of POST /v1/explore: evaluation-order search
// (paper §2.5.2) over one translation unit.
//
// The response comes in one of two shapes, negotiated on the Accept
// header. The default is one buffered ExploreResponse JSON body. A client
// that accepts "application/x-ndjson" instead gets a stream framed like
// /v1/batch: one ExploreHeader line, one ExploreOutcomeLine per distinct
// behavior the moment it is discovered, and one ExploreTrailer line with
// the search accounting.
type ExploreRequest struct {
	Source string `json:"source"`
	File   string `json:"file,omitempty"`
	Model  string `json:"model,omitempty"`
	// MaxRuns caps the number of evaluation orders tried (0 = the
	// server's configured default, itself defaulting to 5000).
	MaxRuns int `json:"max_runs,omitempty"`
	// MaxSteps bounds each single execution (0 = server default).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// StopAtFirstUB ends the search at the first undefined order.
	StopAtFirstUB bool `json:"stop_at_first_ub,omitempty"`
	// Parallelism is the search's worker count, clamped to the server's
	// concurrency limit (0 = 1: an exploration holds one admission slot,
	// extra parallelism is an explicit request — same rule as batch).
	Parallelism int `json:"parallelism,omitempty"`
	// POR switches partial-order reduction: "on" (default) prunes sibling
	// orders whose operand effects provably commute; "off" explores every
	// order reachable within the budget.
	POR string `json:"por,omitempty"`
	// Dedup switches explored-state deduplication ("off" by default: the
	// state digest is a heuristic identity, so sharing subtrees is an
	// accelerator clients opt into).
	Dedup string `json:"dedup,omitempty"`
	// Timeout bounds the whole search as a Go duration string.
	Timeout string `json:"timeout,omitempty"`
}

// ExploreHeader is the first NDJSON line of a streamed /v1/explore reply:
// the search shape after defaulting and clamping.
type ExploreHeader struct {
	Schema      string `json:"schema"`
	File        string `json:"file"`
	MaxRuns     int    `json:"max_runs"`
	Parallelism int    `json:"parallelism"`
	POR         bool   `json:"por"`
	Dedup       bool   `json:"dedup"`
}

// ExploreOutcomeLine is one streamed distinct behavior, emitted in
// discovery order. Runs is the number of orders explored when the
// behavior surfaced — a progress marker, not part of the outcome.
type ExploreOutcomeLine struct {
	ExploreOutcome
	Runs int64 `json:"runs"`
}

// ExploreTrailer is the final NDJSON line of a streamed /v1/explore
// reply. Outcomes repeats the number of outcome lines sent, so a client
// can verify it saw the whole stream; Error is set when the search
// failed after the header was already on the wire.
type ExploreTrailer struct {
	Done          bool          `json:"done"`
	Runs          int           `json:"runs"`
	Exhausted     bool          `json:"exhausted"`
	Deterministic bool          `json:"deterministic"`
	Outcomes      int           `json:"outcomes"`
	Stats         *search.Stats `json:"stats,omitempty"`
	// TraceID echoes the search's forwarded trace identity (see
	// BatchTrailer.TraceID).
	TraceID string    `json:"trace_id,omitempty"`
	Error   *APIError `json:"error,omitempty"`
}

// ExploreOutcome is one distinct observed behavior.
type ExploreOutcome struct {
	ExitCode int       `json:"exit_code"`
	Output   string    `json:"output,omitempty"`
	UB       *ub.Error `json:"ub,omitempty"`
	Error    string    `json:"error,omitempty"`
	// Trace is the evaluation-order decision prefix that produced this
	// behavior (replayable).
	Trace []int `json:"trace"`
}

// ExploreResponse is the body of a /v1/explore reply; ubexplore -json
// emits the identical shape, so the CLI and the service stay one format.
type ExploreResponse struct {
	Schema        string           `json:"schema"`
	File          string           `json:"file"`
	Runs          int              `json:"runs"`
	Exhausted     bool             `json:"exhausted"`
	Deterministic bool             `json:"deterministic"`
	Outcomes      []ExploreOutcome `json:"outcomes"`
	// Stats breaks the search down: orders explored, orders pruned by
	// partial-order reduction, states deduplicated, wall time.
	Stats *search.Stats `json:"stats,omitempty"`
}

// ExploreResponseFrom flattens a search result into the wire shape.
func ExploreResponseFrom(file string, res search.Result) *ExploreResponse {
	stats := res.Stats
	out := &ExploreResponse{
		Schema:        APISchema,
		File:          file,
		Runs:          res.Runs,
		Exhausted:     res.Exhausted,
		Deterministic: res.Deterministic(),
		Outcomes:      []ExploreOutcome{},
		Stats:         &stats,
	}
	for _, o := range res.Outcomes {
		out.Outcomes = append(out.Outcomes, ExploreOutcomeFrom(o))
	}
	return out
}

// ExploreOutcomeFrom flattens one outcome into the wire shape (shared by
// the buffered response and the streamed outcome lines).
func ExploreOutcomeFrom(o search.Outcome) ExploreOutcome {
	eo := ExploreOutcome{ExitCode: o.ExitCode, Output: o.Output, UB: o.UB, Trace: o.Trace}
	if eo.Trace == nil {
		eo.Trace = []int{}
	}
	if o.Err != nil {
		eo.Error = o.Err.Error()
	}
	return eo
}

// APIError is the machine-readable error detail of an ErrorResponse.
type APIError struct {
	// Code is a stable identifier: "bad-request", "too-large",
	// "queue-full", "draining", "not-found", "method-not-allowed",
	// "internal-error".
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx reply.
type ErrorResponse struct {
	Schema string   `json:"schema"`
	Error  APIError `json:"error"`
}

// SpansResponse is the body of GET /v1/spans/{trace}: one process's
// retained spans for a trace, labeled with the process identity so an
// assembler can tell shard incarnations apart.
type SpansResponse struct {
	Schema   string         `json:"schema"`
	TraceID  string         `json:"trace_id"`
	ShardID  string         `json:"shard_id,omitempty"`
	Instance string         `json:"instance"`
	Spans    []obs.SpanJSON `json:"spans"`
}

// QueueStats is the admission queue's /metrics view.
type QueueStats struct {
	// Depth is the current number of requests waiting for admission;
	// MaxDepth is its high-water mark.
	Depth    int64 `json:"depth"`
	MaxDepth int64 `json:"max_depth"`
	// Active is the number of admitted requests currently executing;
	// MaxActive is its high-water mark.
	Active    int64 `json:"active"`
	MaxActive int64 `json:"max_active"`
	// Admitted counts requests that got a slot; Rejected counts 429s
	// (queue at capacity); Cancelled counts waiters whose request context
	// ended before a slot freed up.
	Admitted  int64 `json:"admitted"`
	Rejected  int64 `json:"rejected"`
	Cancelled int64 `json:"cancelled"`
}

// CoalesceStats is the request coalescer's /metrics view.
type CoalesceStats struct {
	// Leaders counts requests that ran an analysis; Followers counts
	// requests served by sharing a leader's in-flight analysis.
	Leaders   int64 `json:"leaders"`
	Followers int64 `json:"followers"`
	// HitRate is Followers / (Leaders + Followers), the fraction of
	// requests that paid nothing.
	HitRate float64 `json:"hit_rate"`
}

func coalesceStats(g fault.GroupStats) CoalesceStats {
	s := CoalesceStats{Leaders: g.Led, Followers: g.Shared}
	if s.Leaders+s.Followers > 0 {
		s.HitRate = float64(s.Followers) / float64(s.Leaders+s.Followers)
	}
	return s
}

// MetricsResponse is the body of GET /metrics.
type MetricsResponse struct {
	Schema   string `json:"schema"`
	UptimeNS int64  `json:"uptime_ns"`
	// Instance is this process incarnation's boot identity (random per
	// start). A cluster router reconciles its delivered-by-instance
	// counts against shard metrics through this field: if it changes
	// between two readings, the counters restarted from zero.
	Instance string `json:"instance,omitempty"`
	// ShardID is the operator-assigned shard name, set when the server
	// runs as a cluster shard.
	ShardID string `json:"shard_id,omitempty"`
	// Warm reports whether the compile cache has completed at least one
	// compile (the /readyz cold gate).
	Warm bool `json:"warm,omitempty"`
	// ServiceEWMANS is the smoothed per-request service time feeding the
	// adaptive Retry-After calculation.
	ServiceEWMANS int64 `json:"service_ewma_ns,omitempty"`
	// Requests counts received requests by route ("/v1/analyze", ...).
	Requests map[string]int64 `json:"requests"`
	// Verdicts counts /v1/analyze results by verdict string; BatchCells
	// does the same for streamed batch cells.
	Verdicts   map[string]int64 `json:"verdicts,omitempty"`
	BatchCells map[string]int64 `json:"batch_cells,omitempty"`
	// Panics counts handler panics contained by the serve-stage guard.
	Panics   int64             `json:"panics,omitempty"`
	Queue    QueueStats        `json:"queue"`
	Coalesce CoalesceStats     `json:"coalesce"`
	Cache    driver.CacheStats `json:"cache"`
	// Bytecode is the compiled-code cache of the "vm" engine, present only
	// when the server runs with Config.Engine "vm".
	Bytecode *vm.CacheStats `json:"bytecode,omitempty"`
	// Artifact is the content-addressed artifact tier under the compile
	// cache, present only when the server runs with Config.ArtifactDir.
	Artifact *artifact.Stats `json:"artifact,omitempty"`
	// Latency holds the server-side latency distributions of the analyze
	// path, keyed "e2e", "queue", "compile", "run" — each with count, sum,
	// min/max and precomputed p50/p95/p99. Present once the server has
	// handled at least one analyze request. Deltas between two readings
	// (HistogramSnapshot.Sub) give windowed quantiles; undefbench uses
	// exactly that to compare server-side against client-observed latency.
	Latency map[string]*obs.HistogramSnapshot `json:"latency,omitempty"`
	// Coverage is the process-lifetime UB check-site coverage ledger (also
	// served alone on GET /v1/coverage); a cluster router sums shard
	// ledgers into its aggregate through this field.
	Coverage *obs.CoverageLedger `json:"coverage,omitempty"`
	Draining bool                `json:"draining,omitempty"`
	// Explore aggregates /v1/explore work, present once the server has
	// run at least one search.
	Explore *ExploreMetrics `json:"explore,omitempty"`
}

// ExploreMetrics is the /metrics view of the evaluation-order search.
type ExploreMetrics struct {
	// Searches counts completed /v1/explore requests (both response
	// forms); the remaining counters sum over those searches.
	Searches       int64 `json:"searches"`
	OrdersExplored int64 `json:"orders_explored"`
	OrdersPruned   int64 `json:"orders_pruned"`
	StatesDeduped  int64 `json:"states_deduped"`
}

// ConfigResponse is the body of GET /debug/config: the effective serving
// configuration after defaulting.
type ConfigResponse struct {
	Schema         string   `json:"schema"`
	Model          string   `json:"model"`
	ShardID        string   `json:"shard_id,omitempty"`
	Defines        []string `json:"defines,omitempty"`
	Engine         string   `json:"engine,omitempty"`
	Concurrency    int      `json:"concurrency"`
	QueueDepth     int      `json:"queue_depth"`
	DefaultTimeout string   `json:"default_timeout"`
	MaxTimeout     string   `json:"max_timeout"`
	MaxSourceBytes int64    `json:"max_source_bytes"`
	MaxBatchCases  int      `json:"max_batch_cases"`
	MaxExploreRuns int      `json:"max_explore_runs"`
	InjectorArmed  bool     `json:"injector_armed,omitempty"`
	// TraceSample is the 1-in-N analyze-tracing rate (0 = tracing off);
	// FlightEvents is the armed flight-recorder ring size (0 = off).
	TraceSample  int `json:"trace_sample,omitempty"`
	FlightEvents int `json:"flight_events,omitempty"`
	// ArtifactDir and ArtifactPeers describe the artifact tier (empty =
	// tier disabled).
	ArtifactDir   string   `json:"artifact_dir,omitempty"`
	ArtifactPeers []string `json:"artifact_peers,omitempty"`
}

// parseTimeout resolves a request's timeout string against the server's
// default and ceiling: empty means the default, anything above the
// ceiling is clamped to it.
func parseTimeout(s string, def, max time.Duration) (time.Duration, error) {
	if s == "" {
		return def, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d <= 0 || d > max {
		return max, nil
	}
	return d, nil
}
