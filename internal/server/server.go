// Package server turns the undefinedness checker into a long-lived
// analysis service: a versioned undefc.api/v1 HTTP API over the same
// pipeline the CLIs drive (driver → tools → runner → search), wrapped in
// the serving discipline a production checker needs — bounded admission
// with backpressure (a full queue answers 429 + Retry-After immediately
// instead of queueing without bound), single-flight coalescing of
// identical in-flight submissions keyed on the compile cache's source
// hash (N clients submitting the same translation unit cost one
// compile+run), per-request deadlines, panic quarantine at the serve
// stage (a crashing request returns a structured internal-error verdict;
// the daemon keeps serving), and graceful drain for SIGTERM.
//
// Routes:
//
//	POST /v1/analyze   one source → one undefc.report/v1 tool result
//	POST /v1/batch     case set → NDJSON stream of per-cell results
//	POST /v1/explore   evaluation-order search (§2.5.2)
//	GET  /v1/trace/    one retained trace from the span ring, Chrome trace JSON
//	GET  /v1/spans/    this process's retained spans for one trace ID
//	GET  /v1/coverage  the UB check-site coverage ledger
//	GET  /healthz      liveness ("ok", or 503 "draining")
//	GET  /metrics      queue/coalesce/cache/verdict counters, JSON
//	GET  /debug/config effective serving configuration
package server

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/artifact"
	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/tools"
)

// SiteHandle is the fault-injection site fired at the top of every
// admitted request's analysis; the unit is the request's file name.
var SiteHandle = fault.RegisterSite("server.handle")

// Config tunes the service. Zero values take the documented defaults.
type Config struct {
	// Model is the default implementation-defined model ("LP64", "ILP32",
	// "INT8"); requests may override it.
	Model string
	// ShardID, when set, names this instance's place in a cluster: every
	// response carries it as X-Undefc-Shard, so clients and audits can
	// attribute answers to ring members.
	ShardID string
	// Concurrency bounds simultaneously executing analyses (default:
	// GOMAXPROCS).
	Concurrency int
	// QueueDepth bounds requests waiting for admission; arrivals beyond
	// it are answered 429 immediately (default 64).
	QueueDepth int
	// DefaultTimeout is the per-request watchdog when the request names
	// none (default 5s); MaxTimeout is the ceiling any request can ask
	// for (default 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxExploreRuns is the default evaluation-order budget of a
	// /v1/explore search when the request names none (default 5000).
	MaxExploreRuns int
	// MaxSteps is the default execution step budget (0 = the pipeline's
	// interp.DefaultBudget).
	MaxSteps int64
	// Injector, when set, arms fault injection: the server.handle site
	// fires per admitted analysis and the injector is threaded into the
	// frontend and the tools (their own sites). It also arms each
	// analysis' flight recorder, so a quarantined, timed-out or cancelled
	// result carries its last obs.DefaultFlightEvents abstract-machine
	// events (a chaos run without post-mortems is wasted).
	Injector *fault.Injector
	// TraceSample enables local request sampling: every Nth /v1/analyze
	// request is traced end to end (handle → queue → compile → interp) and
	// its span tree is retrievable as Chrome trace-event JSON from
	// GET /v1/trace/{id} while its spans stay in the span ring. 0 samples
	// nothing (forwarded trace identities are still recorded); 1 traces
	// everything.
	TraceSample int
	// ArtifactDir, when set, arms the content-addressed artifact tier
	// under the compile cache: compiled programs are persisted there as
	// checksummed frames keyed by driver.SourceKey, the directory
	// survives restarts, and GET /v1/artifact/{key} serves frames to
	// peer shards.
	ArtifactDir string
	// ArtifactMaxBytes caps the artifact store (default 256 MiB; < 0
	// uncapped).
	ArtifactMaxBytes int64
	// ArtifactPeers are sibling shard addresses to fetch missing
	// artifacts from before falling back to a local compile.
	ArtifactPeers []string
}

func (c Config) withDefaults() Config {
	if c.Model == "" {
		c.Model = "LP64"
	}
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.DefaultTimeout > c.MaxTimeout {
		c.DefaultTimeout = c.MaxTimeout
	}
	if c.MaxExploreRuns <= 0 {
		c.MaxExploreRuns = 5000
	}
	if c.ArtifactMaxBytes == 0 {
		c.ArtifactMaxBytes = 256 << 20
	}
	return c
}

const (
	// maxBatchCases bounds a caller-supplied batch.
	maxBatchCases = 4096
	// maxSourceBytes bounds an analyze/explore request body; batch bodies
	// get 16×.
	maxSourceBytes = 1 << 20
)

// Server is one service instance: a compile cache, an admission queue,
// a request coalescer, and the counters behind /metrics. It is inert
// until its Handler is mounted on a listener.
type Server struct {
	cfg      Config
	model    *ctypes.Model
	cache    *driver.Cache
	queue    *queue
	flights  fault.Group[string, outcome] // coalesces identical in-flight analyze requests
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool

	// instance is this process's boot identity (random per Server): a
	// cluster router watches it to detect restarts, because a restart
	// resets every counter below.
	instance string
	// ewmaServiceNS tracks recent analyze service time (α=1/8); the
	// adaptive Retry-After derives from it and the queue backlog.
	ewmaServiceNS atomic.Int64

	// sampleCtr drives the 1-in-TraceSample decision.
	sampleCtr atomic.Uint64
	// spans is the always-on bounded span ring behind GET /v1/trace/{id}
	// and GET /v1/spans/{trace}: whenever a request carries a trace
	// identity (forwarded by a router or sampled here), its completed
	// spans land in the ring, so a router can stitch this shard's
	// contribution into a cross-node trace even when the shard itself
	// samples nothing.
	spans *obs.SpanRing

	// Server-side latency distributions (lock-free histograms, exposed on
	// /metrics as latency{e2e,queue,compile,run} with p50/p95/p99).
	latE2E     obs.Histogram // whole /v1/analyze handler
	latQueue   obs.Histogram // admission wait
	latCompile obs.Histogram // frontend wait (cache hits are ~0)
	latRun     obs.Histogram // tool's own analysis

	// artifacts is the content-addressed artifact tier under the compile
	// cache; nil unless Config.ArtifactDir is set.
	artifacts *artifact.Tier

	mu         sync.Mutex
	requests   map[string]int64
	verdicts   map[string]int64
	batchCells map[string]int64
	panics     int64
	explore    ExploreMetrics
}

// New builds a Server from cfg (zero fields defaulted). It fails only on
// an unknown default model.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	model, err := ctypes.ModelFor(cfg.Model)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:        cfg,
		model:      model,
		cache:      driver.NewCache(),
		queue:      newQueue(cfg.Concurrency, cfg.QueueDepth),
		start:      time.Now(),
		instance:   newInstanceID(),
		requests:   make(map[string]int64),
		verdicts:   make(map[string]int64),
		batchCells: make(map[string]int64),
	}
	s.spans = obs.NewSpanRing(0, 0)
	if cfg.ArtifactDir != "" {
		tier, err := artifact.NewTier(artifact.Config{
			Dir:      cfg.ArtifactDir,
			MaxBytes: cfg.ArtifactMaxBytes,
			Peers:    cfg.ArtifactPeers,
		})
		if err != nil {
			return nil, fmt.Errorf("artifact tier: %w", err)
		}
		s.artifacts = tier
		s.cache.SetArtifacts(tier)
	}
	s.mux = http.NewServeMux()
	s.route("/v1/analyze", http.MethodPost, s.handleAnalyze)
	s.route("/v1/batch", http.MethodPost, s.handleBatch)
	s.route("/v1/explore", http.MethodPost, s.handleExplore)
	s.route("/v1/trace/", http.MethodGet, s.handleTrace)
	s.route("/v1/spans/", http.MethodGet, s.handleSpans)
	s.route("/v1/coverage", http.MethodGet, s.handleCoverage)
	s.route("/healthz", http.MethodGet, s.handleHealthz)
	s.route("/readyz", http.MethodGet, s.handleReadyz)
	s.route("/metrics", http.MethodGet, s.handleMetrics)
	s.route("/debug/config", http.MethodGet, s.handleConfig)
	s.route("/v1/artifact/", http.MethodGet, s.handleArtifact)
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "not-found", "no such route: "+r.URL.Path)
	})
	return s, nil
}

// Handler returns the service's HTTP handler (mount it on any server).
func (s *Server) Handler() http.Handler { return s.mux }

// SetDraining flips the drain flag: /healthz starts answering 503 so load
// balancers stop routing here, while in-flight and already-accepted
// requests complete normally (http.Server.Shutdown handles the
// connection-level drain).
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// CacheStats exposes the shared compile cache's counters.
func (s *Server) CacheStats() driver.CacheStats { return s.cache.Stats() }

// Instance returns this process's boot identity (the X-Undefc-Instance
// header value).
func (s *Server) Instance() string { return s.instance }

// Warmup runs one compile of a trivial translation unit through the
// shared cache, flipping /readyz from "cold" to ready. Daemons call it
// between binding the listener and announcing readiness, so a cluster
// router only ever routes to shards whose pipeline has proven itself
// end to end at least once.
func (s *Server) Warmup(ctx context.Context) error {
	copts := driver.Options{Model: s.model}
	_, err := s.cache.CompileCtx(ctx, "int main(void) { return 0; }", "warmup.c", copts)
	return err
}

// warm reports whether the compile cache has produced a program (Warmup,
// or any successful compile): /readyz answers 503 "cold" until then, so a
// router never hashes traffic onto a shard that would pay a cold-cache
// penalty spike.
func (s *Server) warm() bool {
	st := s.cache.Stats()
	return st.Compiles+st.ArtifactHits > st.Errors
}

// newInstanceID draws a random 64-bit boot identity.
func newInstanceID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		// The fallback only needs per-restart uniqueness on one host.
		return fmt.Sprintf("%016x", uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// route registers a method-checked, request-counted handler. Every
// response carries the process's instance identity (and shard name when
// configured), so a router can attribute answers and detect restarts.
func (s *Server) route(path, method string, h http.HandlerFunc) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		s.requests[path]++
		s.mu.Unlock()
		w.Header().Set("X-Undefc-Instance", s.instance)
		if s.cfg.ShardID != "" {
			w.Header().Set("X-Undefc-Shard", s.cfg.ShardID)
		}
		// Echo a forwarded trace identity on every response — including
		// refusals (429/503) and method errors — so a client can always ask
		// the cluster for the trace of the request that was turned away.
		if tid := r.Header.Get("X-Undefc-Trace-Id"); tid != "" {
			w.Header().Set("X-Undefc-Trace-Id", tid)
		}
		if r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, "method-not-allowed",
				fmt.Sprintf("%s only accepts %s", path, method))
			return
		}
		h(w, r)
	})
}

// countVerdict tallies one verdict and returns it, so a caller can stamp
// the same value on the response it is about to write.
func (s *Server) countVerdict(kind, verdict string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kind == "batch" {
		s.batchCells[verdict]++
	} else {
		s.verdicts[verdict]++
	}
	return verdict
}

func (s *Server) countPanic() {
	s.mu.Lock()
	s.panics++
	s.mu.Unlock()
}

// countExplore folds one finished search into the /metrics aggregates.
func (s *Server) countExplore(st search.Stats) {
	s.mu.Lock()
	s.explore.Searches++
	s.explore.OrdersExplored += st.OrdersExplored
	s.explore.OrdersPruned += st.OrdersPruned
	s.explore.StatesDeduped += st.StatesDeduped
	s.mu.Unlock()
}

// Metrics assembles the /metrics snapshot.
func (s *Server) Metrics() *MetricsResponse {
	m := &MetricsResponse{
		Schema:        APISchema,
		UptimeNS:      time.Since(s.start).Nanoseconds(),
		Instance:      s.instance,
		ShardID:       s.cfg.ShardID,
		Warm:          s.warm(),
		ServiceEWMANS: s.ewmaServiceNS.Load(),
		Queue:         s.queue.Stats(),
		Coalesce:      coalesceStats(s.flights.Stats()),
		Cache:         s.cache.Stats(),
		Draining:      s.draining.Load(),
	}
	if s.artifacts != nil {
		st := s.artifacts.Stats()
		m.Artifact = &st
	}
	if led := obs.CoverageSnapshot(); led.Registered > 0 {
		m.Coverage = led
	}
	if e2e := s.latE2E.Snapshot(); e2e.Count > 0 {
		m.Latency = map[string]*obs.HistogramSnapshot{
			"e2e":     e2e,
			"queue":   s.latQueue.Snapshot(),
			"compile": s.latCompile.Snapshot(),
			"run":     s.latRun.Snapshot(),
		}
	}
	s.mu.Lock()
	m.Requests = copyMap(s.requests)
	m.Verdicts = copyMap(s.verdicts)
	m.BatchCells = copyMap(s.batchCells)
	m.Panics = s.panics
	if s.explore.Searches > 0 {
		ex := s.explore
		m.Explore = &ex
	}
	s.mu.Unlock()
	return m
}

// ResetHighWater starts a fresh measurement window: the admission gauges'
// high-water marks rebase to their current levels and the latency
// histograms clear. Monotonic counters (requests, verdicts, cache) are
// left alone — windowed readings of those are a subtraction the client
// can do, but a high-water mark can only be rebased at the source.
// Exposed as POST /debug/metrics/reset on the debug listener only, never
// on the serving mux.
func (s *Server) ResetHighWater() {
	s.queue.ResetHighWater()
	s.latE2E.Reset()
	s.latQueue.Reset()
	s.latCompile.Reset()
	s.latRun.Reset()
}

func copyMap(src map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(src))
	for k, v := range src {
		out[k] = v
	}
	return out
}

// observeService folds one completed analyze round-trip into the
// service-time EWMA behind the adaptive Retry-After (racy lost updates
// are fine for a pacing signal).
func (s *Server) observeService(d time.Duration) {
	old := s.ewmaServiceNS.Load()
	s.ewmaServiceNS.Store(old + (d.Nanoseconds()-old)/8)
}

// retryAfterSeconds derives the backpressure pacing hint from live
// signals instead of a constant: the expected time to clear the current
// backlog — (waiting + active + 1) requests at the recent EWMA service
// time across Concurrency executors — clamped to [1, 60]. A router (or
// any well-behaved client) backing off by this amount arrives roughly
// when a slot is actually free, instead of either hammering a deep queue
// every second or idling in front of an empty one.
func (s *Server) retryAfterSeconds() int {
	ewma := s.ewmaServiceNS.Load()
	if ewma <= 0 {
		return 1
	}
	backlog := s.queue.waiting.Load() + s.queue.active.Load() + 1
	secs := int(math.Ceil(float64(backlog) * float64(ewma) / float64(s.cfg.Concurrency) / 1e9))
	if secs < 1 {
		return 1
	}
	if secs > 60 {
		return 60
	}
	return secs
}

// setRetryAfter stamps the adaptive pacing hint on a backpressure reply.
func (s *Server) setRetryAfter(h http.Header) {
	h.Set("Retry-After", fmt.Sprint(s.retryAfterSeconds()))
}

// toolFor resolves a request's tool name to a configured analysis tool.
func toolFor(name string, cfg tools.Config) (tools.Tool, error) {
	switch strings.ToLower(name) {
	case "", "kcc":
		return tools.KCC(cfg), nil
	case "valgrind", "memcheck":
		return tools.Memcheck(cfg), nil
	case "checkpointer":
		return tools.CheckPointer(cfg), nil
	case "value-analysis", "va":
		return tools.ValueAnalysis(cfg), nil
	}
	return nil, fmt.Errorf("unknown tool %q (want kcc, valgrind, checkpointer, or value-analysis)", name)
}

// budgetFor merges a request's step knob with the server default.
func (s *Server) budgetFor(maxSteps int64) interp.Budget {
	if maxSteps <= 0 {
		maxSteps = s.cfg.MaxSteps
	}
	return interp.Budget{MaxSteps: maxSteps}
}
