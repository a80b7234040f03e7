package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/suite"
	"repro/internal/tools"
)

// ---------- request prelude ----------

// prelude is what every analysis request resolves before it runs.
type prelude struct {
	model   *ctypes.Model
	timeout time.Duration
	// par is the request's parallelism, clamped to [1, Config.Concurrency]:
	// one admission slot covers the whole request.
	par int
}

// resolve resolves the knobs /v1/analyze, /v1/batch and /v1/explore
// share: the data model, the watchdog (timeoutField names it in an error)
// and the parallelism. It answers 400 itself when a knob is malformed.
func (s *Server) resolve(w http.ResponseWriter, model, timeoutField, timeout string, par int) (prelude, bool) {
	p := prelude{model: s.model, par: min(max(par, 1), s.cfg.Concurrency)}
	if model != "" {
		m, err := ctypes.ModelFor(model)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-request", err.Error())
			return p, false
		}
		p.model = m
	}
	d, err := parseTimeout(timeout, s.cfg.DefaultTimeout, s.cfg.MaxTimeout)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", timeoutField+": "+err.Error())
		return p, false
	}
	p.timeout = d
	return p, true
}

// admit takes an admission slot for one request, recorded as a "queue"
// span, and returns how long the request waited for it. A refusal comes
// back as the outcome to serve instead: 429 queue-full when the wait line
// is at capacity, 503 cancelled when the request ended while it waited.
func (s *Server) admit(ctx context.Context) (release func(), wait time.Duration, refusal *outcome) {
	start := time.Now()
	_, sp := obs.StartSpan(ctx, "queue")
	release, err := s.queue.Acquire(ctx)
	sp.End()
	if errors.Is(err, ErrQueueFull) {
		return nil, 0, &outcome{status: http.StatusTooManyRequests, errCode: "queue-full",
			errMsg: fmt.Sprintf("admission queue at capacity (%d executing, %d waiting); retry later",
				s.cfg.Concurrency, s.cfg.QueueDepth)}
	}
	if err != nil {
		return nil, 0, &outcome{status: http.StatusServiceUnavailable, errCode: "cancelled",
			errMsg: "request ended while waiting for admission: " + err.Error()}
	}
	return release, time.Since(start), nil
}

// writeRefusal serves an outcome that carries no analysis; backpressure
// statuses get the adaptive Retry-After.
func (s *Server) writeRefusal(w http.ResponseWriter, out *outcome) {
	if out.status == http.StatusTooManyRequests || out.status == http.StatusServiceUnavailable {
		s.setRetryAfter(w.Header())
	}
	writeError(w, out.status, out.errCode, out.errMsg)
}

// ---------- /v1/analyze ----------

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	// The e2e window opens before the request is even decoded and closes
	// after the response bytes are written: it must cover everything a
	// client's own stopwatch covers short of the network, or the
	// server-side histogram undercounts exactly the overhead it exists
	// to surface.
	start := time.Now()
	var req AnalyzeRequest
	if !decodeJSON(w, r, maxSourceBytes, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "bad-request", "source is required")
		return
	}
	file := req.File
	if file == "" {
		file = "request.c"
	}
	p, ok := s.resolve(w, req.Model, "timeout", req.Timeout, 0)
	if !ok {
		return
	}
	tool, err := toolFor(req.Tool, tools.Config{
		Budget:   s.budgetFor(req.MaxSteps),
		Metrics:  req.Metrics,
		Injector: s.cfg.Injector,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", err.Error())
		return
	}
	copts := driver.Options{Model: p.model, Defines: req.Defines, Injector: s.cfg.Injector}

	// Tracing: every cfg.TraceSample-th analyze request gets a trace
	// context; its span tree lands in the span ring when the root ends and
	// is served by GET /v1/trace/{id}. A request arriving from a cluster
	// router may carry X-Undefc-Trace-Id — a trace the router already
	// sampled — in which case this hop adopts that identity instead of
	// minting one, so the spans recorded here are retrievable under the
	// ID the client was told, whichever shard a failover landed on.
	ctx, traceID := s.adoptTrace(w, r, true)
	ctx, hsp := obs.StartSpan(ctx, "handle")

	// The coalesce key is the compile cache's source identity plus every
	// knob that changes the analysis: two requests with equal keys would
	// produce identical results, so the second shares the first's flight.
	key := fmt.Sprintf("%s|%s|%d|%s|%v",
		driver.SourceKey(req.Source, file, copts), tool.Name(), req.MaxSteps, p.timeout, req.Metrics)
	// Followers share only a deterministic outcome (see runAnalysis). The
	// leader yields once before running: a ~100 µs CPU-bound analysis never
	// yields on its own, so on a single-P runtime it would finish before any
	// duplicate that has already arrived could find its flight
	// (EXPERIMENTS.md, "Coalescing needs a scheduling point").
	out, err, coalesced := s.flights.Do(ctx, key, func() (outcome, error) {
		runtime.Gosched()
		return s.runAnalysis(ctx, req.Source, file, tool, copts, p.timeout)
	})
	if out.status == 0 { // this request's own wait ended: its client is gone
		out = outcome{status: http.StatusServiceUnavailable, errCode: "cancelled",
			errMsg: "request ended while waiting for a coalesced analysis: " + err.Error()}
	}
	if hsp.Recording() {
		hsp.SetAttr("tool", tool.Name())
		hsp.SetAttr("model", p.model.Name)
		hsp.SetAttr("coalesced", fmt.Sprintf("%v", coalesced))
		if out.errCode != "" {
			hsp.SetAttr("error", out.errCode)
		} else {
			hsp.SetAttr("verdict", out.resp.Result.Verdict.String())
		}
		hsp.End()
	}
	if out.errCode != "" {
		s.writeRefusal(w, &out)
		s.latE2E.Observe(time.Since(start))
		return
	}
	resp := out.resp
	resp.Coalesced = coalesced
	if traceID != 0 {
		resp.TraceID = obs.FormatTraceID(traceID)
	}
	// The header lets a router count the delivered verdict without
	// decoding the body, and it can never disagree with this shard's tally.
	w.Header().Set("X-Undefc-Verdict", s.countVerdict("analyze", resp.Result.Verdict.String()))
	writeJSON(w, out.status, resp)
	e2e := time.Since(start)
	s.latE2E.Observe(e2e)
	s.observeService(e2e)
}

// adoptTrace resolves a request's trace identity and installs the span
// collector on its context. A forwarded X-Undefc-Trace-Id is adopted
// unconditionally — the spans land in the always-on ring, so a shard
// contributes to a router-assembled trace even with sampling off; sample
// additionally mints a fresh identity for every cfg.TraceSample-th request
// when local sampling is on. Whenever the request ends up traced, the
// response carries the ID back in the same header.
func (s *Server) adoptTrace(w http.ResponseWriter, r *http.Request, sample bool) (context.Context, uint64) {
	ctx := r.Context()
	var traceID uint64
	if fwd := r.Header.Get("X-Undefc-Trace-Id"); fwd != "" {
		if id, perr := obs.ParseTraceID(fwd); perr == nil && id != 0 {
			traceID = id
			ctx = obs.WithTraceID(ctx, s.spans, id)
		}
	}
	if traceID == 0 && sample && s.cfg.TraceSample > 0 &&
		s.sampleCtr.Add(1)%uint64(s.cfg.TraceSample) == 0 {
		ctx, traceID = obs.WithTrace(ctx, s.spans)
	}
	if traceID != 0 {
		w.Header().Set("X-Undefc-Trace-Id", obs.FormatTraceID(traceID))
	}
	return ctx, traceID
}

// outcome is the product of one analysis flight: either a response body
// or an API error, plus the HTTP status to serve it with. Followers copy
// the value, so an outcome must stay plain data (the embedded ToolResult
// pointers — UB, Fault, Metrics — are written once by the leader and
// only read after its flight completes).
type outcome struct {
	status int
	resp   AnalyzeResponse
	// errCode/errMsg, when set, mean the flight produced no analysis (the
	// leader was refused admission); the handler serves an ErrorResponse.
	errCode string
	errMsg  string
}

// runAnalysis is the leader's flight: admission, then one guarded
// tools.Analyze through the shared cache. The error is non-nil when the
// outcome belongs to this attempt rather than to the request — a
// refusal, a contained panic or a transient report — so followers must
// not share it.
func (s *Server) runAnalysis(ctx context.Context, src, file string, tool tools.Tool, copts driver.Options, timeout time.Duration) (outcome, error) {
	release, wait, refusal := s.admit(ctx)
	if refusal != nil {
		return *refusal, fault.Transient(errors.New(refusal.errMsg))
	}
	defer release()
	queueNS := wait.Nanoseconds()
	s.latQueue.ObserveNS(queueNS)

	// The run is detached from the leader's request context on purpose:
	// followers coalescing onto this flight must not be cancelled by the
	// leader's client hanging up. The request's timeout bounds it instead,
	// compile and run together. RebindTrace keeps the trace identity
	// across the detach so compile/interp spans still land in the
	// leader's span tree.
	runCtx, cancel := context.WithTimeout(obs.RebindTrace(context.Background(), ctx), timeout)
	defer cancel()

	var rep tools.Report
	gerr := fault.Guard(fault.StageServe, file, func() error {
		if err := s.cfg.Injector.Fire(SiteHandle, file); err != nil {
			return err
		}
		start := time.Now()
		rep = tools.Analyze(runCtx, s.cache, tool, src, file, copts)
		s.latCompile.Observe(time.Since(start) - rep.RunDuration)
		if rep.RunDuration > 0 { // a failed compile runs nothing
			s.latRun.Observe(rep.RunDuration)
		}
		return nil
	})
	if gerr != nil {
		rep = tools.ReportFromError(gerr)
		if rep.Verdict == tools.InternalError {
			s.countPanic()
		}
	}
	status := http.StatusOK
	if rep.Verdict == tools.InternalError {
		status = http.StatusInternalServerError
	}
	var ferr error
	if rep.Verdict == tools.InternalError || rep.Transient {
		ferr = fault.Transient(errors.New(rep.Detail))
	}
	return outcome{status: status, resp: AnalyzeResponse{
		Schema:  APISchema,
		File:    file,
		Result:  runner.ToolResultFrom(tool.Name(), rep),
		QueueNS: queueNS,
	}}, ferr
}

// ---------- /v1/batch ----------

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, 16*maxSourceBytes, &req) {
		return
	}
	var su *suite.Suite
	switch {
	case req.Suite != "" && len(req.Cases) > 0:
		writeError(w, http.StatusBadRequest, "bad-request", "suite and cases are mutually exclusive")
		return
	case req.Suite == "juliet":
		su = suite.Juliet()
	case req.Suite == "own":
		su = suite.Own()
	case req.Suite != "":
		writeError(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("unknown suite %q (want juliet or own)", req.Suite))
		return
	case len(req.Cases) == 0:
		writeError(w, http.StatusBadRequest, "bad-request", "need a suite name or a case list")
		return
	default:
		if len(req.Cases) > maxBatchCases {
			writeError(w, http.StatusRequestEntityTooLarge, "too-large",
				fmt.Sprintf("%d cases exceeds the %d-case limit", len(req.Cases), maxBatchCases))
			return
		}
		su = &suite.Suite{Name: "batch"}
		for i, c := range req.Cases {
			if c.Name == "" {
				writeError(w, http.StatusBadRequest, "bad-request", fmt.Sprintf("case %d: name is required", i))
				return
			}
			su.Cases = append(su.Cases, suite.Case{Name: c.Name, Source: c.Source, Bad: c.Bad, Class: c.Class})
		}
	}
	p, ok := s.resolve(w, req.Model, "case_timeout", req.CaseTimeout, req.Parallelism)
	if !ok {
		return
	}
	tcfg := tools.Config{Budget: s.budgetFor(req.MaxSteps), Metrics: req.Metrics, Injector: s.cfg.Injector}
	toolNames := req.Tools
	if len(toolNames) == 0 {
		toolNames = []string{"kcc"}
	}
	var ts []tools.Tool
	for _, name := range toolNames {
		t, err := toolFor(name, tcfg)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad-request", err.Error())
			return
		}
		ts = append(ts, t)
	}

	// A forwarded trace identity covers the whole batch: the runner's
	// per-cell spans land in the span ring under it (minting is analyze-only;
	// a batch is traced when its caller decided to trace it).
	ctx, traceID := s.adoptTrace(w, r, false)
	release, _, refusal := s.admit(ctx)
	if refusal != nil {
		s.writeRefusal(w, refusal)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	nd := newNDJSON(w)
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Name()
	}
	nd.line(BatchHeader{Schema: APISchema, Suite: su.Name, Cases: len(su.Cases), Tools: names})

	opts := runner.Options{
		Parallelism: p.par,
		Context:     ctx,
		Cache:       s.cache,
		Model:       p.model,
		Defines:     req.Defines,
		CaseTimeout: p.timeout,
		Injector:    s.cfg.Injector,
		OnCell: func(c runner.Cell) {
			s.countVerdict("batch", c.Report.Verdict.String())
			nd.line(BatchCellLine{Case: c.Case, ToolResult: runner.ToolResultFrom(c.Tool, c.Report)})
		},
	}
	unit := "batch:" + su.Name
	var m *runner.MatrixResult
	gerr := fault.Guard(fault.StageServe, unit, func() error {
		if err := s.cfg.Injector.Fire(SiteHandle, unit); err != nil {
			return err
		}
		var rerr error
		m, rerr = runner.RunMatrix(su, ts, opts)
		return rerr
	})
	trailer := BatchTrailer{Done: gerr == nil}
	if traceID != 0 {
		trailer.TraceID = obs.FormatTraceID(traceID)
	}
	if m != nil {
		trailer.Frontend = runner.FrontendJSON{
			Compiles:  m.Frontend.Compiles,
			CacheHits: m.Frontend.CacheHits,
			Errors:    m.Frontend.Errors,
			TimeNS:    m.Frontend.Time.Nanoseconds(),
		}
		trailer.Failures = len(m.Failures)
		trailer.Skipped = m.Skipped
		trailer.Retried = m.Retried
	}
	if gerr != nil {
		code := "cancelled"
		if _, ok := fault.AsInternal(gerr); ok {
			code = "internal-error"
			s.countPanic()
		}
		trailer.Error = &APIError{Code: code, Message: gerr.Error()}
	}
	nd.line(trailer)
}

// ndjson writes newline-delimited JSON lines, flushing after each one when
// the writer can (a streamed HTTP response).
type ndjson struct {
	enc     *json.Encoder
	flusher http.Flusher
}

func newNDJSON(w io.Writer) ndjson {
	flusher, _ := w.(http.Flusher)
	return ndjson{enc: json.NewEncoder(w), flusher: flusher}
}

func (nd ndjson) line(v any) {
	nd.enc.Encode(v)
	if nd.flusher != nil {
		nd.flusher.Flush()
	}
}

// ---------- /v1/explore ----------

// onOff parses the tri-state search switches ("" = def, "on", "off").
func onOff(val string, def bool) (bool, error) {
	switch val {
	case "":
		return def, nil
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("want %q or %q, got %q", "on", "off", val)
}

// wantsNDJSON reports whether the client asked for the streamed explore
// form (the same content negotiation idea as wantsPrometheus: the
// buffered JSON body stays the default, streaming is opted into).
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "application/x-ndjson")
}

// ExploreStream writes the streamed explore form: one ExploreHeader line,
// one ExploreOutcomeLine per distinct behavior as the search discovers
// it, and one ExploreTrailer line. /v1/explore and ubexplore -stream both
// write through it.
type ExploreStream struct {
	nd       ndjson
	outcomes int
}

// NewExploreStream writes h, stamped with the API schema, to w.
func NewExploreStream(w io.Writer, h ExploreHeader) *ExploreStream {
	st := &ExploreStream{nd: newNDJSON(w)}
	h.Schema = APISchema
	st.nd.line(h)
	return st
}

// Outcome writes one distinct behavior; it is a search.Options.OnOutcome,
// whose calls the search serializes.
func (st *ExploreStream) Outcome(o search.Outcome, stats search.Stats) {
	st.outcomes++
	st.nd.line(ExploreOutcomeLine{ExploreOutcome: ExploreOutcomeFrom(o), Runs: stats.OrdersExplored})
}

// Trailer writes the accounting line. traceID, when non-zero, is echoed;
// fail, when non-nil, is the contained panic that ended the search.
func (st *ExploreStream) Trailer(res search.Result, traceID uint64, fail error) {
	t := ExploreTrailer{
		Done:          fail == nil,
		Runs:          res.Runs,
		Exhausted:     res.Exhausted,
		Deterministic: res.Deterministic(),
		Outcomes:      st.outcomes,
		Stats:         &res.Stats,
	}
	if traceID != 0 {
		t.TraceID = obs.FormatTraceID(traceID)
	}
	if fail != nil {
		t.Error = &APIError{Code: "internal-error", Message: fail.Error()}
	}
	st.nd.line(t)
}

func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	var req ExploreRequest
	if !decodeJSON(w, r, maxSourceBytes, &req) {
		return
	}
	if req.Source == "" {
		writeError(w, http.StatusBadRequest, "bad-request", "source is required")
		return
	}
	file := req.File
	if file == "" {
		file = "request.c"
	}
	p, ok := s.resolve(w, req.Model, "timeout", req.Timeout, req.Parallelism)
	if !ok {
		return
	}
	por, err := onOff(req.POR, true)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", "por: "+err.Error())
		return
	}
	dedup, err := onOff(req.Dedup, false)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", "dedup: "+err.Error())
		return
	}
	maxRuns := req.MaxRuns
	if maxRuns <= 0 {
		maxRuns = s.cfg.MaxExploreRuns
	}

	// As with batch, a forwarded trace identity makes the search's spans
	// retrievable from the ring; exploration never mints its own.
	actx, traceID := s.adoptTrace(w, r, false)
	release, _, refusal := s.admit(actx)
	if refusal != nil {
		s.writeRefusal(w, refusal)
		return
	}
	defer release()
	ctx, cancel := context.WithTimeout(actx, p.timeout)
	defer cancel()
	ctx, sp := obs.StartSpan(ctx, "explore")
	copts := driver.Options{Model: p.model, Injector: s.cfg.Injector}

	// Compile before anything is written: a compile error (or a fault
	// before the search starts) is still a clean HTTP error in both
	// response forms, because nothing is on the wire yet.
	var prog *sema.Program
	gerr := fault.Guard(fault.StageServe, file, func() error {
		if err := s.cfg.Injector.Fire(SiteHandle, file); err != nil {
			return err
		}
		var cerr error
		prog, cerr = s.cache.CompileCtx(ctx, req.Source, file, copts)
		return cerr
	})
	if gerr != nil {
		sp.End()
		if ie, ok := fault.AsInternal(gerr); ok {
			s.countPanic()
			writeError(w, http.StatusInternalServerError, "internal-error", ie.Error())
			return
		}
		writeError(w, http.StatusUnprocessableEntity, "compile-error", gerr.Error())
		return
	}

	sopts := search.Options{
		MaxRuns:       maxRuns,
		MaxSteps:      req.MaxSteps,
		StopAtFirstUB: req.StopAtFirstUB,
		Parallelism:   p.par,
		POR:           por,
		Dedup:         dedup,
	}
	if sopts.MaxSteps <= 0 {
		sopts.MaxSteps = s.cfg.MaxSteps
	}
	// The streamed form sends the header now and one line per distinct
	// behavior as the frontier discovers it; once the header is on the
	// wire, a failure travels in the trailer (as in /v1/batch).
	var stream *ExploreStream
	if wantsNDJSON(r) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		stream = NewExploreStream(w, ExploreHeader{File: file, MaxRuns: maxRuns, Parallelism: p.par, POR: por, Dedup: dedup})
		sopts.OnOutcome = stream.Outcome
	}
	var res search.Result
	gerr = fault.Guard(fault.StageServe, file, func() error {
		res = search.Explore(ctx, prog, sopts)
		return nil
	})
	if gerr != nil {
		s.countPanic()
	} else {
		s.countExplore(res.Stats)
	}
	finishExploreSpan(sp, res)
	switch {
	case stream != nil:
		stream.Trailer(res, traceID, gerr)
	case gerr != nil:
		writeError(w, http.StatusInternalServerError, "internal-error", gerr.Error())
	default:
		writeJSON(w, http.StatusOK, ExploreResponseFrom(file, res))
	}
}

func finishExploreSpan(sp *obs.Span, res search.Result) {
	if sp.Recording() {
		sp.SetAttr("runs", fmt.Sprint(res.Runs))
		sp.SetAttr("pruned", fmt.Sprint(res.Stats.OrdersPruned))
		sp.SetAttr("deduped", fmt.Sprint(res.Stats.StatesDeduped))
		sp.SetAttr("outcomes", fmt.Sprint(len(res.Outcomes)))
	}
	sp.End()
}

// ---------- /v1/trace ----------

// handleTrace serves one trace's spans from the span ring as Chrome
// trace-event JSON (load it in chrome://tracing or
// https://ui.perfetto.dev). The id is the 16-hex-digit trace_id a traced
// /v1/analyze response carried, whether this shard sampled the request
// or a router forwarded its identity.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	id, err := obs.ParseTraceID(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", "trace id: "+err.Error())
		return
	}
	spans := s.spans.Get(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "not-found",
			"no such trace (not traced, still in flight, or evicted): "+idStr)
		return
	}
	ptrs := make([]*obs.Span, len(spans))
	for i := range spans {
		ptrs[i] = &spans[i]
	}
	w.Header().Set("Content-Type", "application/json")
	obs.WriteChromeTrace(w, ptrs)
}

// ---------- /v1/spans ----------

// handleSpans serves this process's retained spans for one trace ID from
// the always-on span ring, in the explicit wire form — the per-node feed a
// cluster router stitches into a cross-node trace. Any request that
// arrived with a trace identity left spans here (until the ring's slot or
// byte bound evicts them).
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	idStr := strings.TrimPrefix(r.URL.Path, "/v1/spans/")
	id, err := obs.ParseTraceID(idStr)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad-request", "trace id: "+err.Error())
		return
	}
	spans := s.spans.Get(id)
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "not-found",
			"no spans retained for trace (never traced here, or evicted): "+idStr)
		return
	}
	writeJSON(w, http.StatusOK, &SpansResponse{
		Schema:   APISchema,
		TraceID:  obs.FormatTraceID(id),
		ShardID:  s.cfg.ShardID,
		Instance: s.instance,
		Spans:    obs.SpansToJSON(spans),
	})
}

// ---------- /v1/coverage ----------

// handleCoverage serves the process-lifetime UB check-site coverage ledger:
// every behavior with a registered check site, how often its checks were
// evaluated, and how often they fired.
func (s *Server) handleCoverage(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, obs.CoverageSnapshot())
}

// ---------- /v1/artifact ----------

// handleArtifact serves raw artifact frames to peer shards: a shard that
// missed locally fetches the compiled program from whoever has it instead
// of recompiling. The key's own alphabet (64 hex digits) is the path
// guard; anything else — including traversal attempts — is a 404. The
// frame is served exactly as stored (magic, version, checksum), so the
// fetching side re-validates end to end.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	if s.artifacts == nil {
		writeError(w, http.StatusNotFound, "artifact-tier-disabled",
			"no artifact tier: start the server with an artifact directory")
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/v1/artifact/")
	frame, err := s.artifacts.ServeFrame(key)
	if err != nil {
		writeError(w, http.StatusNotFound, "not-found", "no artifact for key "+key)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", fmt.Sprint(len(frame)))
	w.Write(frame)
}

// ---------- operational endpoints ----------

// handleHealthz is pure liveness: if the process can answer HTTP at all,
// it is alive — even while draining. Routability lives on /readyz; keeping
// the two apart means a drain never looks like a crash to a supervisor,
// and a supervisor never restarts a shard for politely refusing traffic.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is routability: 503 "draining" once shutdown has begun
// (the cluster prober takes the shard out of the ring before the
// listener closes), 503 "cold" until the compile cache has produced its
// first program (Server.Warmup, or any successful compile), 200 "ok"
// otherwise. Routers probe this endpoint, never /healthz.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case s.draining.Load():
		s.setRetryAfter(w.Header())
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case !s.warm():
		s.setRetryAfter(w.Header())
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "cold")
	default:
		fmt.Fprintln(w, "ok")
	}
}

// handleMetrics negotiates the exposition format: JSON stays the default
// (the API's own consumers and undefbench read it), and a Prometheus
// scraper — identified by its Accept header or an explicit
// ?format=prometheus — gets the text exposition format instead.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		writePrometheus(w, s.Metrics())
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

func wantsPrometheus(r *http.Request) bool {
	if r.URL.Query().Get("format") == "prometheus" {
		return true
	}
	accept := r.Header.Get("Accept")
	if strings.Contains(accept, "application/json") {
		return false
	}
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

func (s *Server) handleConfig(w http.ResponseWriter, r *http.Request) {
	var flight int
	if s.cfg.Injector != nil {
		flight = obs.DefaultFlightEvents
	}
	writeJSON(w, http.StatusOK, &ConfigResponse{
		Schema:         APISchema,
		Model:          s.cfg.Model,
		ShardID:        s.cfg.ShardID,
		Concurrency:    s.cfg.Concurrency,
		QueueDepth:     s.cfg.QueueDepth,
		DefaultTimeout: s.cfg.DefaultTimeout.String(),
		MaxTimeout:     s.cfg.MaxTimeout.String(),
		MaxSourceBytes: maxSourceBytes,
		MaxBatchCases:  maxBatchCases,
		MaxExploreRuns: s.cfg.MaxExploreRuns,
		InjectorArmed:  s.cfg.Injector != nil,
		TraceSample:    s.cfg.TraceSample,
		FlightEvents:   flight,
		ArtifactDir:    s.cfg.ArtifactDir,
		ArtifactPeers:  s.cfg.ArtifactPeers,
	})
}

// ---------- plumbing ----------

// decodeJSON reads a size-limited JSON body, answering 413 (too large) or
// 400 (malformed) itself. It reports whether decoding succeeded.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge, "too-large",
				fmt.Sprintf("request body exceeds %d bytes", mbe.Limit))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad-request", "body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := runner.WriteJSON(w, v); err != nil {
		// The status line is gone; nothing useful left to do but note it.
		fmt.Fprintf(w, `{"schema":%q,"error":{"code":"internal-error","message":"encode: %s"}}`,
			APISchema, err)
	}
}

// writeError serves the uniform ErrorResponse. Backpressure statuses
// carry Retry-After so well-behaved clients pace themselves; handlers
// with access to the live queue set the adaptive value first
// (Server.setRetryAfter), and this fallback only fills in the floor.
func writeError(w http.ResponseWriter, status int, code, msg string) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
	}
	writeJSON(w, status, &ErrorResponse{Schema: APISchema, Error: APIError{Code: code, Message: msg}})
}
