package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
)

// Config tunes a Router. Zero values take the documented defaults.
type Config struct {
	// Shards are the undefd shard addresses (host:port) forming the ring.
	Shards []string
	// VNodes is the virtual-node count per shard (default 64).
	VNodes int
	// ProbeInterval is the /readyz health-probe period (default 250ms);
	// ProbeTimeout bounds one probe (default: the interval).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// ForwardTimeout bounds one forward attempt (default 35s — above the
	// shards' own 30s request ceiling, so a shard always answers with its
	// own structured timeout verdict before the router gives up on it;
	// abandoning a shard that is still working is how replays double-count).
	ForwardTimeout time.Duration
	// Retry is the failover policy (default: 3 attempts, 10ms–500ms
	// full-jitter backoff).
	Retry RetryPolicy
	// BreakerFailures, BreakerCooldown, BreakerMaxCooldown tune the
	// per-shard breakers (defaults 3, 500ms, 30s).
	BreakerFailures    int
	BreakerCooldown    time.Duration
	BreakerMaxCooldown time.Duration
	// Model and Defines mirror the shards' serving defaults so the router
	// computes the same driver.SourceKey a shard's compile cache uses.
	Model   string
	Defines []string
	// TraceSample forwards a fresh trace ID with every Nth /v1/analyze
	// request (X-Undefc-Trace-Id); the shard adopts it, so the trace is
	// retrievable from that shard's /v1/trace/{id}. 0 disables.
	TraceSample int
	// MaxBodyBytes bounds a request body (default 17 MiB, above the
	// shards' 16 MiB batch ceiling so the shard's own 413 stays the
	// authoritative answer).
	MaxBodyBytes int64
	// Injector arms the cluster.probe / cluster.forward fault sites.
	Injector *fault.Injector
	// Seed makes backoff and breaker jitter replayable (default 1).
	Seed int64
	// DirectoryMax bounds the key→shard artifact directory (default 4096
	// entries, LRU).
	DirectoryMax int
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.ForwardTimeout <= 0 {
		c.ForwardTimeout = 35 * time.Second
	}
	c.Retry = c.Retry.withDefaults()
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 17 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.DirectoryMax <= 0 {
		c.DirectoryMax = 4096
	}
	return c
}

// Router is the cluster front end: one HTTP handler that owns the ring,
// the shard health model, and the failover loop. It serves the same
// undefc.api/v1 surface as a single undefd, so clients cannot tell a
// cluster from a box — except that shards may die under them without the
// answers changing.
type Router struct {
	cfg    Config
	ring   *Ring
	shards []*shard
	prober *prober
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	draining  atomic.Bool
	sampleCtr atomic.Uint64

	// spans is the router's own bounded span ring: the forward loop records
	// one span per attempt (and per backoff sleep) under the request's
	// trace identity, so an assembled cross-node trace shows the failed
	// attempt, the wait, and the retried shard — not just the hop that
	// finally answered.
	spans *obs.SpanRing

	rngMu sync.Mutex
	rng   *rand.Rand

	fwdAttempts  atomic.Int64
	fwdDelivered atomic.Int64
	fwdFailures  atomic.Int64
	fwdRetries   atomic.Int64
	fwdFailovers atomic.Int64
	fwd429       atomic.Int64
	relayed429   atomic.Int64
	noShards     atomic.Int64
	upstreamLost atomic.Int64

	// Artifact routing state: the key→holder directory behind the
	// X-Undefc-Artifact-Peer hint, and the cluster-wide single-flight
	// group (its Parked count is the coalesced counter).
	dir      *directory
	flights  fault.Group[string, struct{}]
	artHints atomic.Int64

	mu         sync.Mutex
	requests   map[string]int64
	delivered  map[string]int64
	byInstance map[string]map[string]int64
}

// NewRouter builds a router over the given shards. It is inert until
// Start arms the prober and Handler is mounted on a listener.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if _, err := server.ModelFor(cfg.Model); err != nil {
		return nil, err
	}
	ring, err := NewRing(cfg.Shards, cfg.VNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:        cfg,
		ring:       ring,
		client:     &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}},
		start:      time.Now(),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		spans:      obs.NewSpanRing(0, 0),
		dir:        newDirectory(cfg.DirectoryMax),
		requests:   make(map[string]int64),
		delivered:  make(map[string]int64),
		byInstance: make(map[string]map[string]int64),
	}
	for i, addr := range ring.Shards() {
		b := NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, cfg.BreakerMaxCooldown, cfg.Seed+int64(i))
		rt.shards = append(rt.shards, newShard(addr, b))
	}
	rt.prober = newProber(rt.shards, cfg.ProbeInterval, cfg.ProbeTimeout, cfg.Injector)
	rt.mux = http.NewServeMux()
	rt.route("/v1/analyze", http.MethodPost, rt.handleKeyed)
	rt.route("/v1/explore", http.MethodPost, rt.handleKeyed)
	rt.route("/v1/batch", http.MethodPost, rt.handleKeyed)
	rt.route("/v1/trace/", http.MethodGet, rt.handleTrace)
	rt.route("/v1/spans/", http.MethodGet, rt.handleSpans)
	rt.route("/v1/coverage", http.MethodGet, rt.handleCoverage)
	rt.route("/healthz", http.MethodGet, rt.handleHealthz)
	rt.route("/readyz", http.MethodGet, rt.handleReadyz)
	rt.route("/metrics", http.MethodGet, rt.handleMetrics)
	rt.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		rt.writeError(w, http.StatusNotFound, "not-found", "no such route: "+r.URL.Path)
	})
	return rt, nil
}

// Start launches the health prober (one synchronous sweep first, so the
// router knows its shards before the first request).
func (rt *Router) Start() { rt.prober.start() }

// Stop halts the prober. In-flight forwards are unaffected.
func (rt *Router) Stop() { rt.prober.halt() }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// SetDraining flips the router's own drain flag: /readyz answers 503 so
// the layer above stops routing here, while forwards in flight finish.
func (rt *Router) SetDraining(v bool) { rt.draining.Store(v) }

func (rt *Router) route(path, method string, h http.HandlerFunc) {
	rt.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		rt.mu.Lock()
		rt.requests[path]++
		rt.mu.Unlock()
		// Echo a client-supplied trace identity on every response — the
		// forward path overwrites this with the minted id when it runs, but
		// refusals (405, no-shards 503) must carry it too.
		if tid := r.Header.Get("X-Undefc-Trace-Id"); tid != "" {
			w.Header().Set("X-Undefc-Trace-Id", tid)
		}
		if r.Method != method {
			w.Header().Set("Allow", method)
			rt.writeError(w, http.StatusMethodNotAllowed, "method-not-allowed",
				fmt.Sprintf("%s only accepts %s", path, method))
			return
		}
		h(w, r)
	})
}

// shardFor maps an address back to its health record.
func (rt *Router) shardFor(addr string) *shard {
	for _, s := range rt.shards {
		if s.addr == addr {
			return s
		}
	}
	return nil
}

// routeKey computes the ring key for a request body: driver.SourceKey
// over (source, file, model, defines), exactly the identity the shards'
// compile caches use — so identical sources land on the shard that
// already has them compiled. Bodies that do not parse (the shard will
// answer 400) and batch bodies (no single source) key on the raw bytes:
// still deterministic, still balanced.
func (rt *Router) routeKey(path string, body []byte) string {
	if path == "/v1/batch" {
		return fmt.Sprintf("batch:%x", hash64(string(body)))
	}
	var req struct {
		Source  string   `json:"source"`
		File    string   `json:"file"`
		Model   string   `json:"model"`
		Defines []string `json:"defines"`
	}
	if err := json.Unmarshal(body, &req); err != nil || req.Source == "" {
		return fmt.Sprintf("raw:%x", hash64(string(body)))
	}
	name := req.Model
	if name == "" {
		name = rt.cfg.Model
	}
	model, err := server.ModelFor(name)
	if err != nil {
		return fmt.Sprintf("raw:%x", hash64(string(body)))
	}
	file := req.File
	if file == "" {
		file = "request.c"
	}
	defines := append(append([]string{}, rt.cfg.Defines...), req.Defines...)
	return driver.SourceKey(req.Source, file, driver.Options{Model: model, Defines: defines})
}

// handleKeyed is the forwarding path for the three /v1 analysis routes:
// consistent-hash the body, then forward with bounded failover.
func (rt *Router) handleKeyed(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, rt.cfg.MaxBodyBytes)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			rt.writeError(w, http.StatusRequestEntityTooLarge, "too-large",
				fmt.Sprintf("request body exceeds %d bytes", rt.cfg.MaxBodyBytes))
			return
		}
		rt.writeError(w, http.StatusBadRequest, "bad-request", "body: "+err.Error())
		return
	}
	path := r.URL.Path
	key := rt.routeKey(path, body)
	replicas := rt.ring.Replicas(key)
	artKey := ""

	// Cluster-wide single-flight: identical /v1/analyze keys park behind
	// the first. Once its forward reaches a shard they are released to
	// find the work done wherever they land (cache hit, or artifact fetch
	// on failover); if it reaches none, one follower leads instead. The
	// forward timeout bounds the wait: a stuck leader cannot strand them.
	if path == "/v1/analyze" && isArtifactKey(key) {
		artKey = key
		led := false
		wait, cancel := context.WithTimeout(r.Context(), rt.cfg.ForwardTimeout)
		rt.flights.Do(wait, key, func() (struct{}, error) {
			led = true
			return struct{}{}, rt.forward(w, r, path, artKey, body, replicas)
		})
		cancel()
		if led || r.Context().Err() != nil {
			return // answered, or the client left while parked
		}
	}
	rt.forward(w, r, path, artKey, body, replicas)
}

// errUndelivered marks a leader's forward that reached no shard: it says
// nothing about the key, so parked followers must not be released on it.
var errUndelivered = fault.Transient(errors.New("forward reached no shard"))

// forward runs the failover loop: walk the key's replica list, skipping
// shards the health model rules out, with jittered exponential backoff
// between attempts. A response from a shard — any status — ends the
// loop, except 429 and draining 503, which fail over (the shard counted
// nothing for them, so replaying elsewhere cannot double-count). artKey
// is an analyze request's source key, empty for every other request. It
// returns errUndelivered unless a shard's answer reached the client.
func (rt *Router) forward(w http.ResponseWriter, r *http.Request, path, artKey string, body []byte, replicas []string) error {
	streaming := path == "/v1/batch" ||
		(path == "/v1/explore" && strings.Contains(r.Header.Get("Accept"), "application/x-ndjson"))

	// The trace identity survives failover: mint it once per logical
	// request (or adopt the client's), not per attempt.
	traceID := r.Header.Get("X-Undefc-Trace-Id")
	if traceID == "" && rt.cfg.TraceSample > 0 && path == "/v1/analyze" &&
		rt.sampleCtr.Add(1)%uint64(rt.cfg.TraceSample) == 0 {
		traceID = obs.FormatTraceID(obs.NewTraceID())
	}

	// Traced requests record the router's side of the story into its span
	// ring: one "forward" span per attempt, one "backoff" span per retry
	// wait. The identity is stamped on the response up front, so even a
	// refusal (429 relay, no-shards 503) tells the client which trace to
	// ask /v1/trace for.
	var spanCtx context.Context
	if traceID != "" {
		if tid, perr := obs.ParseTraceID(traceID); perr == nil && tid != 0 {
			spanCtx = obs.WithTraceID(context.Background(), rt.spans, tid)
		}
		w.Header().Set("X-Undefc-Trace-Id", traceID)
	}
	startSpan := func(name string) *obs.Span {
		if spanCtx == nil {
			return nil
		}
		_, sp := obs.StartSpan(spanCtx, name)
		return sp
	}

	next := 0 // cursor into replicas: failover advances it
	var last429 *http.Response
	var last429Body []byte
	for attempt := 1; attempt <= rt.cfg.Retry.MaxAttempts; attempt++ {
		now := time.Now()
		var sh *shard
		for next < len(replicas) {
			cand := rt.shardFor(replicas[next])
			next++
			if cand != nil && cand.available(now) {
				sh = cand
				break
			}
		}
		if sh == nil {
			break // replica list exhausted
		}
		if attempt > 1 {
			rt.fwdRetries.Add(1)
			rt.fwdFailovers.Add(1) // the cursor only moves forward: every retry is a failover
			bsp := startSpan("backoff")
			rt.sleepBackoff(attempt - 1)
			if bsp.Recording() {
				bsp.SetAttr("attempt", fmt.Sprint(attempt))
				bsp.End()
			}
		}
		rt.fwdAttempts.Add(1)
		sh.forwards.Add(1)

		if err := rt.cfg.Injector.Fire(SiteForward, sh.addr); err != nil {
			if sp := startSpan("forward"); sp.Recording() {
				sp.SetAttr("shard", sh.addr)
				sp.SetAttr("attempt", fmt.Sprint(attempt))
				sp.SetAttr("error", err.Error())
				sp.End()
			}
			sh.errors.Add(1)
			rt.fwdFailures.Add(1)
			sh.breaker.Failure(time.Now())
			continue
		}

		ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.ForwardTimeout)
		req, err := http.NewRequestWithContext(ctx, r.Method, "http://"+sh.addr+path, bytes.NewReader(body))
		if err != nil {
			cancel()
			rt.writeError(w, http.StatusInternalServerError, "internal-error", err.Error())
			return errUndelivered
		}
		req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
		if accept := r.Header.Get("Accept"); accept != "" {
			req.Header.Set("Accept", accept)
		}
		if traceID != "" {
			req.Header.Set("X-Undefc-Trace-Id", traceID)
		}
		if attempt > 1 {
			req.Header.Set("X-Undefc-Replay", "1")
		}
		if artKey != "" {
			// Steer the shard's artifact fetch at whoever answered for
			// this key last — decisive on failover, when the replacement
			// shard is cold but the original's store (or a peer that
			// fetched from it) still holds the frame.
			if holder, ok := rt.dir.lookup(artKey); ok && holder != sh.addr {
				req.Header.Set("X-Undefc-Artifact-Peer", holder)
				rt.artHints.Add(1)
			}
		}
		fsp := startSpan("forward")
		if fsp.Recording() {
			fsp.SetAttr("shard", sh.addr)
			fsp.SetAttr("attempt", fmt.Sprint(attempt))
		}
		fstart := time.Now()
		resp, err := rt.client.Do(req)
		if err != nil {
			if fsp.Recording() {
				fsp.SetAttr("error", err.Error())
				fsp.End()
			}
			cancel()
			if r.Context().Err() != nil {
				// The client went away: the outbound context (derived from
				// the request's) was cancelled under the shard, which is
				// blameless. No one is left to answer or fail over for.
				return errUndelivered
			}
			sh.errors.Add(1)
			rt.fwdFailures.Add(1)
			sh.breaker.Failure(time.Now())
			continue
		}
		// A response of any status means the shard is alive.
		sh.breaker.Success(time.Now())
		sh.observeLatency(time.Since(fstart))
		sh.setInstance(resp.Header.Get("X-Undefc-Instance"))
		if fsp.Recording() {
			fsp.SetAttr("status", fmt.Sprint(resp.StatusCode))
			fsp.End()
		}

		if streaming && resp.StatusCode == http.StatusOK {
			w.Header().Set("X-Undefc-Attempts", fmt.Sprint(attempt))
			lost := rt.relayStream(w, resp, sh, traceID)
			resp.Body.Close()
			cancel()
			switch {
			case lost == nil:
				rt.fwdDelivered.Add(1)
			case r.Context().Err() == nil:
				// Bytes are on the wire: no replay. The client got a typed
				// trailer error instead of a truncated stream.
				rt.upstreamLost.Add(1)
				sh.errors.Add(1)
				sh.breaker.Failure(time.Now())
				// Remaining case: the client hung up mid-stream and the
				// cancellation rippled into the upstream read — the shard
				// is blameless, and no one is left to answer.
			}
			if lost != nil {
				return errUndelivered
			}
			return nil
		}

		respBody, rerr := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
		resp.Body.Close()
		cancel()
		if rerr != nil {
			if r.Context().Err() != nil {
				return errUndelivered // client gone mid-read; the shard is blameless
			}
			// Response lost in transit before anything reached the client:
			// replay is safe for the client; if the shard died, its counters
			// died with it, and if it lives its next probe keeps it honest.
			sh.errors.Add(1)
			rt.fwdFailures.Add(1)
			sh.breaker.Failure(time.Now())
			continue
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			// Shard backpressure: it admitted nothing and counted nothing,
			// so the next replica can take the request. Keep the response in
			// case every replica is saturated.
			rt.fwd429.Add(1)
			last429 = resp
			last429Body = respBody
			continue
		case resp.StatusCode == http.StatusServiceUnavailable && bytes.Contains(respBody, []byte("draining")):
			// The shard is leaving: take it out of rotation ahead of the
			// next probe and fail over.
			sh.draining.Store(true)
			continue
		}
		w.Header().Set("X-Undefc-Attempts", fmt.Sprint(attempt))
		rt.relay(w, resp, respBody)
		rt.fwdDelivered.Add(1)
		if path == "/v1/analyze" {
			rt.countDelivered(resp.Header.Get("X-Undefc-Verdict"), sh.instanceID())
			if artKey != "" && resp.StatusCode == http.StatusOK {
				// The shard that just answered compiled (or fetched) the
				// program: it is now the directory's best guess for where
				// this key's artifact lives.
				rt.dir.record(artKey, sh.addr)
			}
		}
		return nil
	}
	if last429 != nil {
		rt.relayed429.Add(1)
		rt.relay(w, last429, last429Body)
		return errUndelivered
	}
	rt.noShards.Add(1)
	w.Header().Set("Retry-After", "1")
	rt.writeError(w, http.StatusServiceUnavailable, "no-shards",
		fmt.Sprintf("no shard available for this request (%d in ring)", len(rt.shards)))
	return errUndelivered
}

// relay copies a buffered upstream response to the client verbatim.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, body []byte) {
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// relayStream forwards an NDJSON stream line by line: only complete
// lines reach the client, so when the shard dies mid-stream the client
// sees every whole frame it produced plus one typed trailer error —
// never a torn JSON line. Returns non-nil when the upstream was lost.
func (rt *Router) relayStream(w http.ResponseWriter, resp *http.Response, sh *shard, traceID string) error {
	copyHeaders(w.Header(), resp.Header)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		complete := len(line) > 0 && line[len(line)-1] == '\n'
		if complete {
			w.Write(line)
			flush()
		}
		if err == io.EOF {
			if len(line) > 0 && !complete {
				// The stream ended inside a frame: the shard died mid-line.
				err = io.ErrUnexpectedEOF
			} else {
				return nil
			}
		}
		if err != nil {
			frame := map[string]any{
				"done": false,
				"error": map[string]string{
					"code":    "upstream-lost",
					"message": fmt.Sprintf("shard %s lost mid-stream: %v", sh.addr, err),
				},
			}
			if traceID != "" {
				// The trailer names the trace, so a consumer holding only the
				// stream can still pull the assembled failure story.
				frame["trace_id"] = traceID
			}
			trailer, _ := json.Marshal(frame)
			w.Write(append(trailer, '\n'))
			flush()
			return err
		}
	}
}

// countDelivered counts a delivered analyze verdict once — the moment of
// delivery — in both the total and the per-instance tallies. The shard
// stamps X-Undefc-Verdict exactly when it counts a verdict itself, so an
// error body (no header) counts nothing here either.
func (rt *Router) countDelivered(v, instance string) {
	if v == "" {
		return
	}
	rt.mu.Lock()
	rt.delivered[v]++
	m := rt.byInstance[instance]
	if m == nil {
		m = make(map[string]int64)
		rt.byInstance[instance] = m
	}
	m[v]++
	rt.mu.Unlock()
}

func (rt *Router) sleepBackoff(retry int) {
	rt.rngMu.Lock()
	d := rt.cfg.Retry.Backoff(retry, rt.rng)
	rt.rngMu.Unlock()
	time.Sleep(d)
}

// handleTrace resolves GET /v1/trace/{id} into ONE cross-node Chrome
// trace: the router's own forward/backoff spans stitched with the spans
// every shard recorded under the same identity, one named process row
// per node. Failover is visible in the result — the failed attempt, the
// backoff wait, and the retried shard all appear.
func (rt *Router) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/v1/trace/")
	id, err := obs.ParseTraceID(raw)
	if err != nil || id == 0 {
		rt.writeError(w, http.StatusBadRequest, "bad-request", "trace id: malformed")
		return
	}
	var procs []obs.ProcessSpans
	if own := rt.spans.Get(id); len(own) > 0 {
		procs = append(procs, obs.ProcessSpans{Name: "router", Spans: own})
	}
	// Every shard is asked, even ones the health model would skip for
	// forwarding: the fetch is cheap, a dead shard fails fast, and a
	// recovering shard may still hold the spans that matter.
	rt.fanOut(r.Context(), "/v1/spans/"+raw, 64<<20, func(i int, body []byte) {
		var sr server.SpansResponse
		if json.Unmarshal(body, &sr) != nil {
			return
		}
		spans := make([]obs.Span, 0, len(sr.Spans))
		for _, sj := range sr.Spans {
			if sp, serr := obs.SpanFromJSON(sj); serr == nil {
				spans = append(spans, sp)
			}
		}
		if len(spans) == 0 {
			return
		}
		name := "shard " + rt.shards[i].addr
		if sr.Instance != "" {
			// The instance distinguishes incarnations: a shard that died
			// and was replaced at the same address shows up as a distinct
			// process row, which is exactly what a failover trace needs.
			name += " (" + sr.Instance + ")"
		}
		procs = append(procs, obs.ProcessSpans{Name: name, Spans: spans})
	})
	if len(procs) == 0 {
		rt.writeError(w, http.StatusNotFound, "not-found", "no process recorded spans for that trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(obs.AssembleChromeTrace(procs))
}

// fanOut GETs path from every shard in parallel, each under the probe
// budget (ProbeTimeout*4), reading at most limit bytes of each answer.
// Once every shard has answered or timed out, it hands each 200 body to
// decode with the shard's ring index, one call at a time in ring order,
// so decode needs no lock and its results come out deterministic. A
// shard that fails contributes nothing.
func (rt *Router) fanOut(ctx context.Context, path string, limit int64, decode func(i int, body []byte)) {
	bodies := make([][]byte, len(rt.shards))
	var wg sync.WaitGroup
	for i, sh := range rt.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, rt.cfg.ProbeTimeout*4)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+sh.addr+path, nil)
			if err != nil {
				return
			}
			resp, err := rt.client.Do(req)
			if err != nil {
				return
			}
			body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				bodies[i] = body
			}
		}(i, sh)
	}
	wg.Wait()
	for i, body := range bodies {
		if body != nil {
			decode(i, body)
		}
	}
}

// handleSpans serves the router's own span ring for one trace in the
// same wire shape the shards use, so anything that can stitch a shard's
// spans can stitch the router's too.
func (rt *Router) handleSpans(w http.ResponseWriter, r *http.Request) {
	raw := strings.TrimPrefix(r.URL.Path, "/v1/spans/")
	id, err := obs.ParseTraceID(raw)
	if err != nil || id == 0 {
		rt.writeError(w, http.StatusBadRequest, "bad-request", "trace id: malformed")
		return
	}
	spans := rt.spans.Get(id)
	if len(spans) == 0 {
		rt.writeError(w, http.StatusNotFound, "not-found", "no spans recorded for that trace")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(&server.SpansResponse{
		Schema:   server.APISchema,
		TraceID:  obs.FormatTraceID(id),
		Instance: "router",
		Spans:    obs.SpansToJSON(spans),
	})
}

// handleCoverage merges the shards' UB coverage ledgers into one
// cluster-wide view. The router's own snapshot contributes the full
// registry shape (the check sites register at init in every binary that
// links the interpreter) with zero counters — the router never executes
// C — so the merged ledger's dead-coverage rows are meaningful even when
// a shard is unreachable.
func (rt *Router) handleCoverage(w http.ResponseWriter, r *http.Request) {
	led := obs.CoverageSnapshot()
	rt.fanOut(r.Context(), "/v1/coverage", 16<<20, func(_ int, body []byte) {
		var sl obs.CoverageLedger
		if json.Unmarshal(body, &sl) == nil {
			led.Add(&sl)
		}
	})
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(led)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz answers whether the router can do useful work: not
// draining, and at least one shard routable.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case rt.draining.Load():
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case rt.availableShards() == 0:
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no shards ready")
	default:
		fmt.Fprintln(w, "ok")
	}
}

// availableShards counts shards the forward path could use right now,
// without consuming any half-open trial slot.
func (rt *Router) availableShards() int {
	n := 0
	for _, sh := range rt.shards {
		if !sh.draining.Load() && !sh.cold.Load() && sh.breaker.State() != BreakerOpen {
			n++
		}
	}
	return n
}

// Metrics assembles the router /metrics snapshot.
func (rt *Router) Metrics() *RouterMetrics {
	m := &RouterMetrics{
		Schema:   MetricsSchema,
		UptimeNS: time.Since(rt.start).Nanoseconds(),
		Draining: rt.draining.Load(),
		Forward: ForwardStats{
			Attempts:     rt.fwdAttempts.Load(),
			Delivered:    rt.fwdDelivered.Load(),
			Failures:     rt.fwdFailures.Load(),
			Retries:      rt.fwdRetries.Load(),
			Failovers:    rt.fwdFailovers.Load(),
			Upstream429:  rt.fwd429.Load(),
			Relayed429:   rt.relayed429.Load(),
			NoShards:     rt.noShards.Load(),
			UpstreamLost: rt.upstreamLost.Load(),
		},
		Artifact: &ArtifactRouting{
			Coalesced:     rt.flights.Stats().Parked,
			Hints:         rt.artHints.Load(),
			DirectoryKeys: int64(rt.dir.len()),
		},
	}
	for _, sh := range rt.shards {
		state := "ready"
		switch {
		case sh.draining.Load():
			state = "draining"
		case sh.cold.Load():
			state = "cold"
		case sh.breaker.State() != BreakerClosed:
			state = sh.breaker.State().String()
		}
		m.Shards = append(m.Shards, ShardMetrics{
			Addr:          sh.addr,
			Instance:      sh.instanceID(),
			State:         state,
			Breaker:       sh.breaker.Stats(),
			Probes:        sh.probes.Load(),
			ProbeFails:    sh.probeFails.Load(),
			Forwards:      sh.forwards.Load(),
			Errors:        sh.errors.Load(),
			LatencyEWMANS: sh.latEWMA.Load(),
		})
	}
	rt.mu.Lock()
	m.Requests = make(map[string]int64, len(rt.requests))
	for k, v := range rt.requests {
		m.Requests[k] = v
	}
	m.Delivered = make(map[string]int64, len(rt.delivered))
	for k, v := range rt.delivered {
		m.Delivered[k] = v
	}
	m.DeliveredByInstance = make(map[string]map[string]int64, len(rt.byInstance))
	for inst, vs := range rt.byInstance {
		cp := make(map[string]int64, len(vs))
		for k, v := range vs {
			cp[k] = v
		}
		m.DeliveredByInstance[inst] = cp
	}
	rt.mu.Unlock()
	return m
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := rt.Metrics()
	// The per-shard cache/artifact graft costs one bounded round trip per
	// shard, so it runs only on the request path, never inside Metrics().
	rt.enrichMetrics(r.Context(), m)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(m)
}

// writeError serves the same uniform error body the shards do, so a
// client never needs to know whether a refusal came from the router or
// from a shard.
func (rt *Router) writeError(w http.ResponseWriter, status int, code, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(&server.ErrorResponse{
		Schema: server.APISchema,
		Error:  server.APIError{Code: code, Message: msg},
	})
}

// copyHeaders relays upstream response headers, preserving the shard's
// identity headers (X-Undefc-Shard, X-Undefc-Instance) so clients and
// audits can attribute each answer.
func copyHeaders(dst, src http.Header) {
	for k, vs := range src {
		if k == "Content-Length" {
			continue
		}
		if len(dst.Values(k)) > 0 {
			// The router already stamped this header (trace identity,
			// attempt count); the shard's echo would only duplicate it.
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}
