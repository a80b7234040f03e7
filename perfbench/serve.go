package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/suite"
	"repro/internal/tools"
)

const (
	// serveClients is the closed loop's connection count: callers that
	// each wait for their verdict before sending the next request.
	serveClients = 2
	// serveRequestsPerSecond sizes the fixed request count of a run
	// (this many per --seconds), so that every build serves the same
	// requests and the caches grow by the same amount.
	serveRequestsPerSecond = 1500
	// serveUniqueShare is the share of requests that are comment-salted
	// unique copies: compile-cache and artifact-store writes.
	serveUniqueShare = 0.2
	// serveHotJuliet Juliet cases, drawn by the seed, join every torture
	// program in the hot set; serveTortureShare of the requests go to
	// the torture part.
	serveHotJuliet    = 64
	serveTortureShare = 0.25
	// serveTraceEvery pins a trace identity on every Nth request of the
	// traced phase, whose assembled router trace the run then pulls.
	serveTraceEvery = 25
	// serveWindow requests make one throughput window.
	serveWindow = 1000
)

type serveCase struct {
	name, source string
	want         tools.Verdict
}

type serveReq struct {
	c      *serveCase
	source string // the salted copy for a unique request
	unique bool
}

// serveCluster is one set-up: two in-process shards, each with its own
// artifact directory and the other as its peer, behind an in-process
// cluster router, all on loopback listeners.
type serveCluster struct {
	dir     string
	servers []*http.Server
	shards  []string // shard addresses
	router  *cluster.Router
	url     string
}

func (c *serveCluster) close() {
	if c.router != nil {
		c.router.Stop()
	}
	for _, hs := range c.servers {
		hs.Close()
	}
	os.RemoveAll(c.dir)
}

// serve drives /v1/analyze (kcc) through the router with a fixed,
// seeded request list: reads of a hot set, and unique salted copies.
type serve struct {
	cfg *config
	rng *rand.Rand
	// The hot set: Juliet cases the seed draws, and every torture
	// program. Set-up warms all of it.
	juliet  []serveCase
	torture []serveCase
	client  *http.Client
	cl      *serveCluster
	reps    int // set-ups so far
	phases  int // timed phases so far; salts are unique across both
}

func newServe(cfg *config) *serve {
	s := &serve{
		cfg: cfg,
		rng: rand.New(rand.NewSource(cfg.seed)),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients,
		}},
	}
	for _, t := range suite.Torture() {
		s.torture = append(s.torture, serveCase{t.Name, t.Source, tools.Accepted})
	}
	nj := serveHotJuliet
	if cfg.tiny {
		nj = 4
		s.torture = s.torture[:2]
	}
	juliet := suite.Juliet().Cases
	for _, i := range s.rng.Perm(len(juliet))[:nj] {
		c := juliet[i]
		want := tools.Accepted
		if c.Bad {
			want = tools.Flagged
		}
		s.juliet = append(s.juliet, serveCase{c.Name, c.Source, want})
	}
	return s
}

// pick draws one hot program: the torture part with serveTortureShare.
func (s *serve) pick() *serveCase {
	if s.rng.Float64() < serveTortureShare {
		return &s.torture[s.rng.Intn(len(s.torture))]
	}
	return &s.juliet[s.rng.Intn(len(s.juliet))]
}

// requests generates the fixed request list of a phase.
func (s *serve) requests(n int) []serveReq {
	s.phases++
	reqs := make([]serveReq, n)
	for i := range reqs {
		c := s.pick()
		reqs[i] = serveReq{c: c, source: c.source}
		if s.rng.Float64() < serveUniqueShare {
			reqs[i].unique = true
			reqs[i].source = fmt.Sprintf("/* salt %d.%d.%d */\n%s", s.cfg.seed, s.phases, i, c.source)
		}
	}
	return reqs
}

// setup boots the shards and the router on fresh directories, waits for
// the router's /readyz, and warms the hot set through the router.
func (s *serve) setup(ctx context.Context) error {
	if s.cl != nil {
		s.cl.close()
	}
	s.reps++
	if err := s.cfg.steps.time("boot", func() error { return s.boot(ctx) }); err != nil {
		return err
	}
	for pi, part := range [][]serveCase{s.juliet, s.torture} {
		for i := range part {
			err := s.cfg.steps.time(fmt.Sprintf("warm %d/%d", pi, i), func() error {
				return s.analyze(ctx, part[i].source, &part[i], "")
			})
			if err != nil {
				return fmt.Errorf("warming %s: %w", part[i].name, err)
			}
		}
	}
	return nil
}

// boot starts the shards and the router and waits until the router is
// ready.
func (s *serve) boot(ctx context.Context) error {
	cl := &serveCluster{dir: filepath.Join(s.cfg.workDir(), fmt.Sprintf("serve-%d-%d", os.Getpid(), s.reps))}
	s.cl = cl
	var lns []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return err
		}
		lns = append(lns, ln)
		cl.shards = append(cl.shards, ln.Addr().String())
	}
	for i, ln := range lns {
		srv, err := server.New(server.Config{
			ShardID:       fmt.Sprintf("s%d", i),
			ArtifactDir:   filepath.Join(cl.dir, fmt.Sprintf("s%d", i)),
			ArtifactPeers: []string{cl.shards[1-i]},
		})
		if err == nil {
			err = srv.Warmup(ctx)
		}
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return fmt.Errorf("shard %d: %w", i, err)
		}
		hs := &http.Server{Handler: srv.Handler()}
		cl.servers = append(cl.servers, hs)
		go hs.Serve(ln)
	}
	rt, err := cluster.NewRouter(cluster.Config{Shards: cl.shards, Seed: s.cfg.seed})
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	rt.Start()
	cl.router = rt
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: rt.Handler()}
	cl.servers = append(cl.servers, hs)
	go hs.Serve(rln)
	cl.url = "http://" + rln.Addr().String()
	return s.waitReady()
}

func (s *serve) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.cl.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("router not ready")
}

// analyze posts one request through the router and holds the reply to
// the program's known verdict; any refusal or error is a failure.
func (s *serve) analyze(ctx context.Context, source string, c *serveCase, traceID string) error {
	body, err := json.Marshal(server.AnalyzeRequest{Source: source, File: c.name + ".c", Tool: "kcc"})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.cl.url+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set("X-Undefc-Trace-Id", traceID)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, abbrev(string(data)))
	}
	var ar server.AnalyzeResponse
	if err := json.Unmarshal(data, &ar); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if ar.Result.Verdict != c.want {
		return fmt.Errorf("verdict %s, want %s", ar.Result.Verdict, c.want)
	}
	return nil
}

func (s *serve) close() {
	if s.cl != nil {
		s.cl.close()
		s.cl = nil
	}
	s.client.CloseIdleConnections()
}

// run sends the phase's fixed request list over serveClients closed-loop
// connections. dur only sizes the list.
func (s *serve) run(ctx context.Context, p *phase, tr *tracer, dur time.Duration) {
	n := int(dur.Seconds() * serveRequestsPerSecond)
	if s.cfg.tiny {
		n = 20
	}
	reqs := s.requests(n)
	p.window = serveWindow
	before := s.snapshot()
	var next atomic.Int64
	var wg sync.WaitGroup
	type sample struct {
		id    string
		start time.Time
	}
	var smu sync.Mutex
	var samples []sample
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				var traceID string
				var octx context.Context
				var sp *obs.Span
				if tr != nil && i%serveTraceEvery == 0 {
					id := obs.NewTraceID()
					traceID = obs.FormatTraceID(id)
					octx, sp = tr.opWithID(ctx, "serve.request", id)
				} else {
					octx, sp = tr.op(ctx, "serve.request")
				}
				t0 := time.Now()
				err := s.analyze(octx, r.source, r.c, traceID)
				d := time.Since(t0)
				if sp.Recording() {
					sp.SetAttr("program", r.c.name)
					sp.SetAttr("unique", fmt.Sprint(r.unique))
					sp.End()
				}
				if err != nil {
					logFailure("serve: %s (unique=%v): %v", r.c.name, r.unique, err)
				} else if traceID != "" {
					smu.Lock()
					samples = append(samples, sample{traceID, t0})
					smu.Unlock()
				}
				p.record(d, 1, err == nil)
			}
		}()
	}
	wg.Wait()
	after := s.snapshot()
	after.sub(before, p)
	for _, sm := range samples {
		self, tr2, err := s.routerTrace(sm.id)
		if err != nil {
			logFailure("serve: trace %s: %v", sm.id, err)
			continue
		}
		p.routerSelf = append(p.routerSelf, self)
		tr.remote = append(tr.remote, remoteTrace{sm.start, tr2})
	}
}

// clusterSnapshot is the /metrics state of the router and both shards.
type clusterSnapshot struct {
	router *cluster.RouterMetrics
	shards []*server.MetricsResponse
}

func (s *serve) snapshot() *clusterSnapshot {
	snap := &clusterSnapshot{router: &cluster.RouterMetrics{}}
	if err := s.getJSON(s.cl.url+"/metrics", snap.router); err != nil {
		logFailure("serve: router /metrics: %v", err)
	}
	for _, a := range s.cl.shards {
		m := &server.MetricsResponse{}
		if err := s.getJSON("http://"+a+"/metrics", m); err != nil {
			logFailure("serve: shard /metrics: %v", err)
		}
		snap.shards = append(snap.shards, m)
	}
	return snap
}

// sub adds the counter deltas since before to the phase's layer sums.
func (a *clusterSnapshot) sub(before *clusterSnapshot, p *phase) {
	p.add("cluster.attempts", float64(a.router.Forward.Attempts-before.router.Forward.Attempts))
	if a.router.Artifact != nil && before.router.Artifact != nil {
		p.add("cluster.coalesced", float64(a.router.Artifact.Coalesced-before.router.Artifact.Coalesced))
	}
	hists := map[string]*obs.HistogramSnapshot{}
	for i, m := range a.shards {
		b := before.shards[i]
		p.add("driver.compiles", float64(m.Cache.Compiles-b.Cache.Compiles))
		p.add("driver.hits", float64(m.Cache.Hits-b.Cache.Hits))
		p.add("driver.lookups", float64(m.Cache.Hits+m.Cache.Misses-b.Cache.Hits-b.Cache.Misses))
		p.add("driver.waits", float64(m.Cache.Waits-b.Cache.Waits))
		p.add("driver.compile_ms", float64(m.Cache.CompileTime-b.Cache.CompileTime)/float64(time.Millisecond))
		if m.Artifact != nil && b.Artifact != nil {
			p.add("artifact.stores", float64(m.Artifact.Stores-b.Artifact.Stores))
			p.add("artifact.peer_misses", float64(m.Artifact.PeerMisses-b.Artifact.PeerMisses))
		}
		p.add("server.followers", float64(m.Coalesce.Followers-b.Coalesce.Followers))
		p.add("server.rejected", float64(m.Queue.Rejected-b.Queue.Rejected))
		for k, h := range m.Latency {
			w := h.Sub(b.Latency[k])
			if hists[k] == nil {
				hists[k] = &obs.HistogramSnapshot{}
			}
			hists[k].Merge(w)
		}
	}
	p.hists = hists
}

func (s *serve) getJSON(url string, v any) error {
	resp, err := s.client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// routerTrace pulls the assembled trace of one pinned request from the
// router and returns the router's self time in it: its forward spans
// less the shard handle spans they wait on.
func (s *serve) routerTrace(id string) (float64, obs.ChromeTrace, error) {
	var tr obs.ChromeTrace
	if err := s.getJSON(s.cl.url+"/v1/trace/"+id, &tr); err != nil {
		return 0, tr, err
	}
	names := map[int]string{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "M" {
			names[ev.PID] = ev.Args["name"]
		}
	}
	var fwd, handle int64
	for _, ev := range tr.TraceEvents {
		switch {
		case ev.Ph != "X":
		case names[ev.PID] == "router" && ev.Name == "forward":
			fwd += ev.Dur
		case strings.HasPrefix(names[ev.PID], "shard") && ev.Name == "handle":
			handle += ev.Dur
		}
	}
	if fwd == 0 {
		return 0, tr, fmt.Errorf("no router forward span")
	}
	return float64(fwd-handle) / 1e3, tr, nil
}

func (s *serve) layers(m metricSet, untraced, traced *phase, tr *tracer) {
	n := float64(untraced.ops)
	m.set("driver.compiles_per_op", untraced.perOp("driver.compiles"), "count")
	m.set("driver.hit_share", ratio(untraced.get("driver.hits"), untraced.get("driver.lookups")), "ratio")
	m.set("driver.waits_per_op", untraced.perOp("driver.waits"), "count")
	m.set("driver.compile_ms_per_op", untraced.perOp("driver.compile_ms"), "ms")
	m.set("artifact.stores_per_op", untraced.perOp("artifact.stores"), "count")
	m.set("artifact.peer_misses_per_op", untraced.perOp("artifact.peer_misses"), "count")
	q := func(k string) float64 {
		if h := untraced.hists[k]; h != nil {
			return float64(h.Quantile(0.5)) / 1e6
		}
		return 0
	}
	m.set("server.handle_p50_ms", q("e2e"), "ms")
	m.set("server.queue_p50_ms", q("queue"), "ms")
	m.set("server.compile_p50_ms", q("compile"), "ms")
	m.set("server.run_p50_ms", q("run"), "ms")
	m.set("server.coalesced_share", ratio(untraced.get("server.followers"), n), "ratio")
	m.set("server.rejected", untraced.get("server.rejected"), "count")
	m.set("cluster.router_self_p50_ms", median(traced.routerSelf), "ms")
	m.set("cluster.attempts_per_request", untraced.perOp("cluster.attempts"), "count")
	m.set("cluster.coalesced_share", untraced.perOp("cluster.coalesced"), "ratio")
}
