package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/server"
)

// fakeShard is a scriptable stand-in for one undefd process: it answers
// /readyz ready, stamps an instance header like the real server's
// middleware, and serves /v1/analyze per its mode.
type fakeShard struct {
	ts       *httptest.Server
	instance string
	served   atomic.Int64
	// mode: "ok", "429", "draining", "torn-stream", "stall-stream"
	mode atomic.Value
	// onAnalyze, when set to a func(*http.Request), observes each
	// /v1/analyze request before it is answered (header assertions).
	onAnalyze atomic.Value
}

func newFakeShard(t *testing.T, instance string) *fakeShard {
	t.Helper()
	f := &fakeShard{instance: instance}
	f.mode.Store("ok")
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Undefc-Instance", f.instance)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		if fn, ok := f.onAnalyze.Load().(func(*http.Request)); ok && fn != nil {
			fn(r)
		}
		w.Header().Set("X-Undefc-Instance", f.instance)
		w.Header().Set("Content-Type", "application/json")
		switch f.mode.Load() {
		case "429":
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"schema":"undefc.api/v1","error":{"code":"queue-full","message":"full"}}`)
		case "draining":
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, `{"schema":"undefc.api/v1","error":{"code":"draining","message":"draining"}}`)
		default:
			f.served.Add(1)
			w.Header().Set("X-Undefc-Verdict", "accepted")
			io.WriteString(w, `{"schema":"undefc.api/v1","file":"t.c","result":{"tool":"kcc","verdict":"accepted","run_ns":1}}`)
		}
	})
	mux.HandleFunc("/v1/batch", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Undefc-Instance", f.instance)
		w.Header().Set("Content-Type", "application/x-ndjson")
		fl := w.(http.Flusher)
		io.WriteString(w, `{"schema":"undefc.api/v1","cases":2,"tools":["kcc"]}`+"\n")
		fl.Flush()
		if f.mode.Load() == "stall-stream" {
			// Hold the stream open until the caller goes away: the shape
			// of a long batch whose *client* loses interest first.
			<-r.Context().Done()
			return
		}
		io.WriteString(w, `{"case":"whole","tool":"kcc","verdict":"accepted","run_ns":1}`+"\n")
		fl.Flush()
		if f.mode.Load() == "torn-stream" {
			// Half a frame, then the process "dies": the connection aborts
			// with bytes of an unterminated JSON line on the wire.
			io.WriteString(w, `{"case":"torn","tool":"k`)
			fl.Flush()
			panic(http.ErrAbortHandler)
		}
		io.WriteString(w, `{"done":true,"frontend":{},"failures":0}`+"\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Canned counters for the router's /metrics fan-out tests.
		w.Header().Set("X-Undefc-Instance", f.instance)
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"schema":"undefc.api/v1","requests":{},"queue":{},"coalesce":{},`+
			`"cache":{"hits":5,"misses":2,"compiles":2,"artifact_hits":0},`+
			`"artifact":{"disk_hits":7,"stores":2}}`)
	})
	mux.HandleFunc("/v1/spans/", func(w http.ResponseWriter, r *http.Request) {
		// One canned span under whatever trace is asked for, in the real
		// wire shape: enough for the router's cross-node stitching tests.
		id := strings.TrimPrefix(r.URL.Path, "/v1/spans/")
		w.Header().Set("X-Undefc-Instance", f.instance)
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&server.SpansResponse{
			Schema:   server.APISchema,
			TraceID:  id,
			Instance: f.instance,
			Spans: []obs.SpanJSON{{
				TraceID: id, ID: 1, Name: "handle",
				StartNS: 1700000000000000000, DurNS: 2000000,
			}},
		})
	})
	mux.HandleFunc("/v1/coverage", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"schema":"undefc.coverage/v1","registered_behaviors":1,"fired_behaviors":1,"dead_behaviors":0,`+
			`"behaviors":[{"code":16,"key":"00016","section":"6.5:2","gates":["Seq"],"sites":["fake.site"],"evaluated":5,"fired":1}]}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeShard) addr() string { return strings.TrimPrefix(f.ts.URL, "http://") }

// newTestRouter mounts a started router over the given shards.
func newTestRouter(t *testing.T, cfg Config) (*Router, *httptest.Server) {
	t.Helper()
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func analyzeBody() []byte {
	b, _ := json.Marshal(server.AnalyzeRequest{Source: "int main(void){return 0;}", File: "t.c"})
	return b
}

// orderShards returns the fake shards in the replica order the router
// will try them for the given body, so tests can script "first replica
// misbehaves, second serves".
func orderShards(rt *Router, body []byte, shards ...*fakeShard) []*fakeShard {
	reps := rt.ring.Replicas(rt.routeKey("/v1/analyze", body))
	var out []*fakeShard
	for _, addr := range reps {
		for _, f := range shards {
			if f.addr() == addr {
				out = append(out, f)
			}
		}
	}
	return out
}

// TestFailoverDoesNotDoubleCount is the retry-safety invariant: an
// injected pre-send forward fault triggers a failover, and exactly one
// shard serves (and counts) the request — the client sees one verdict,
// the router delivers one, the shards served one, no matter the retry.
func TestFailoverDoesNotDoubleCount(t *testing.T) {
	a, b := newFakeShard(t, "inst-a"), newFakeShard(t, "inst-b")
	rules, err := fault.ParseSpec("cluster.forward=error*1")
	if err != nil {
		t.Fatal(err)
	}
	rt, ts := newTestRouter(t, Config{
		Shards:   []string{a.addr(), b.addr()},
		Injector: fault.NewInjector(1, rules...),
		Retry:    RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody()))
	if err != nil {
		t.Fatal(err)
	}
	var ar server.AnalyzeResponse
	err = json.NewDecoder(resp.Body).Decode(&ar)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze through failover = %d (%v), want 200", resp.StatusCode, err)
	}
	if got := a.served.Load() + b.served.Load(); got != 1 {
		t.Errorf("shards served %d analyses, want exactly 1 (no replay double-count)", got)
	}
	m := rt.Metrics()
	if m.Forward.Failures != 1 || m.Forward.Retries != 1 || m.Forward.Failovers != 1 {
		t.Errorf("forward stats = %+v, want 1 failure / 1 retry / 1 failover", m.Forward)
	}
	var delivered int64
	for _, n := range m.Delivered {
		delivered += n
	}
	if delivered != 1 || m.Delivered["accepted"] != 1 {
		t.Errorf("delivered = %v, want exactly {accepted:1}", m.Delivered)
	}
	var byInst int64
	for _, vs := range m.DeliveredByInstance {
		for _, n := range vs {
			byInst += n
		}
	}
	if byInst != 1 {
		t.Errorf("per-instance delivered sums to %d, want 1", byInst)
	}
}

// TestBackpressureFailsOver: a shard answering 429 counted nothing, so
// the router may (and does) try the next replica; only when every
// replica is saturated does the client see the 429.
func TestBackpressureFailsOver(t *testing.T) {
	a, b := newFakeShard(t, "inst-a"), newFakeShard(t, "inst-b")
	rt, ts := newTestRouter(t, Config{
		Shards: []string{a.addr(), b.addr()},
		Retry:  RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	body := analyzeBody()
	ordered := orderShards(rt, body, a, b)
	ordered[0].mode.Store("429")

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via the second replica", resp.StatusCode)
	}
	if got := ordered[1].served.Load(); got != 1 {
		t.Errorf("second replica served %d, want 1", got)
	}
	if m := rt.Metrics(); m.Forward.Upstream429 != 1 || m.Forward.Relayed429 != 0 {
		t.Errorf("429 accounting = %+v, want 1 absorbed, 0 relayed", m.Forward)
	}

	// Both replicas saturated: the client gets the honest 429 back.
	ordered[1].mode.Store("429")
	resp, err = http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("all-saturated status = %d, want 429", resp.StatusCode)
	}
	if m := rt.Metrics(); m.Forward.Relayed429 != 1 {
		t.Errorf("relayed 429s = %d, want 1", m.Forward.Relayed429)
	}
}

// TestDrainingShardFailsOver: a 503 draining answer takes the shard out
// of rotation immediately and the request lands on the next replica.
func TestDrainingShardFailsOver(t *testing.T) {
	a, b := newFakeShard(t, "inst-a"), newFakeShard(t, "inst-b")
	rt, ts := newTestRouter(t, Config{
		Shards: []string{a.addr(), b.addr()},
		Retry:  RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	body := analyzeBody()
	ordered := orderShards(rt, body, a, b)
	ordered[0].mode.Store("draining")

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 via the second replica", resp.StatusCode)
	}
	if sh := rt.shardFor(ordered[0].addr()); !sh.draining.Load() {
		t.Error("draining shard not marked out of rotation")
	}
}

// TestStreamLossTypedTrailer is the mid-stream shard-death contract: the
// client receives every complete NDJSON frame the shard produced, then
// one typed trailer error — every line parses as JSON, nothing is torn,
// and the router does not replay a stream whose bytes already reached
// the client.
func TestStreamLossTypedTrailer(t *testing.T) {
	a := newFakeShard(t, "inst-a")
	a.mode.Store("torn-stream")
	rt, ts := newTestRouter(t, Config{Shards: []string{a.addr()}})

	body, _ := json.Marshal(server.BatchRequest{Cases: []server.BatchCase{{Name: "x", Source: "int main(void){return 0;}"}}})
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200 (loss happens mid-stream)", resp.StatusCode)
	}
	var lines []map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("torn line reached the client: %v\n%s", err, line)
		}
		lines = append(lines, doc)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading relayed stream: %v", err)
	}
	if len(lines) != 3 {
		t.Fatalf("got %d frames, want header + 1 cell + typed trailer", len(lines))
	}
	last := lines[len(lines)-1]
	errObj, _ := last["error"].(map[string]any)
	if done, _ := last["done"].(bool); done || errObj == nil || errObj["code"] != "upstream-lost" {
		t.Fatalf("final frame = %v, want done:false error.code:upstream-lost", last)
	}
	m := rt.Metrics()
	if m.Forward.UpstreamLost != 1 {
		t.Errorf("upstream_lost = %d, want 1", m.Forward.UpstreamLost)
	}
	if m.Forward.Retries != 0 {
		t.Errorf("retries = %d, want 0: bytes on the wire must never replay", m.Forward.Retries)
	}
}

// TestClientAbortDoesNotPenalizeShard: a client that hangs up mid-stream
// cancels the router's upstream read, but the shard did nothing wrong —
// the abort must not count as an upstream loss, feed the breaker, or
// show up as a forward failure. Otherwise a burst of impatient clients
// could trip a healthy shard's breaker open.
func TestClientAbortDoesNotPenalizeShard(t *testing.T) {
	a := newFakeShard(t, "inst-a")
	a.mode.Store("stall-stream")
	rt, ts := newTestRouter(t, Config{Shards: []string{a.addr()}})

	body, _ := json.Marshal(server.BatchRequest{Cases: []server.BatchCase{{Name: "x", Source: "int main(void){return 0;}"}}})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the header frame so the stream is demonstrably live, then
	// hang up mid-stream.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatalf("reading header frame: %v", err)
	}
	cancel()
	resp.Body.Close()

	// Give the router's forward goroutine a beat to observe the abort.
	deadline := time.Now().Add(2 * time.Second)
	for rt.Metrics().Shards[0].Forwards == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	m := rt.Metrics()
	if m.Forward.UpstreamLost != 0 || m.Forward.Failures != 0 {
		t.Errorf("client abort charged to the shard: %+v, want 0 lost / 0 failures", m.Forward)
	}
	b := m.Shards[0].Breaker
	if b.Failures != 0 || b.Opens != 0 || b.State != "closed" {
		t.Errorf("breaker penalized by client abort: %+v, want pristine closed", b)
	}
}

// TestRouterReadyz: the router's own readiness reflects whether any
// shard is routable, and draining flips it regardless.
func TestRouterReadyz(t *testing.T) {
	a := newFakeShard(t, "inst-a")
	rt, ts := newTestRouter(t, Config{Shards: []string{a.addr()}})

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz with a ready shard = %d, want 200", resp.StatusCode)
	}
	rt.SetDraining(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining readyz = %d %q, want 503 draining", resp.StatusCode, body)
	}
}

// TestTraceAssemblyShowsFailover: a traced request whose first replica
// is dead for real (connection refused) must come back with one trace id
// and an attempts count of 2, and GET /v1/trace/{id} must stitch the
// router's failed forward, the backoff, and the surviving shard's spans
// into one Chrome trace.
func TestTraceAssemblyShowsFailover(t *testing.T) {
	a := newFakeShard(t, "inst-a")
	b := newFakeShard(t, "inst-b")
	rt, ts := newTestRouter(t, Config{
		Shards: []string{a.addr(), b.addr()},
		Retry:  RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	body := analyzeBody()
	ordered := orderShards(rt, body, a, b)
	if len(ordered) != 2 {
		t.Fatalf("replica order resolved %d shards, want 2", len(ordered))
	}
	ordered[0].ts.Close() // first replica dies for real: connection refused
	survivor := ordered[1].instance

	const traceID = "00000000000000ab"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Undefc-Trace-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze after failover = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Values("X-Undefc-Trace-Id"); len(got) != 1 || got[0] != traceID {
		t.Errorf("X-Undefc-Trace-Id = %v, want exactly one %q", got, traceID)
	}
	if got := resp.Header.Get("X-Undefc-Attempts"); got != "2" {
		t.Errorf("X-Undefc-Attempts = %q, want \"2\"", got)
	}

	tresp, err := http.Get(ts.URL + "/v1/trace/" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s = %d, want 200", traceID, tresp.StatusCode)
	}
	var ct obs.ChromeTrace
	if err := json.NewDecoder(tresp.Body).Decode(&ct); err != nil {
		t.Fatal(err)
	}

	routerProc, shardProcs := false, 0
	var failedFwd, okFwd, backoff bool
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			switch name := ev.Args["name"]; {
			case name == "router":
				routerProc = true
			case strings.HasPrefix(name, "shard "):
				shardProcs++
				if !strings.Contains(name, survivor) {
					t.Errorf("shard process %q, want the survivor %s", name, survivor)
				}
			}
		}
		if ev.Ph != "X" {
			continue
		}
		switch ev.Name {
		case "forward":
			if ev.Args["error"] != "" {
				failedFwd = true
			}
			if ev.Args["status"] == "200" {
				okFwd = true
			}
		case "backoff":
			backoff = true
		}
	}
	if !routerProc {
		t.Error("assembled trace is missing the router process")
	}
	// The dead replica cannot serve /v1/spans, so exactly the survivor
	// contributes a shard process.
	if shardProcs != 1 {
		t.Errorf("assembled trace has %d shard processes, want 1 (the survivor)", shardProcs)
	}
	if !failedFwd {
		t.Error("assembled trace has no forward span recording the failed attempt")
	}
	if !backoff {
		t.Error("assembled trace has no backoff span between the attempts")
	}
	if !okFwd {
		t.Error("assembled trace has no forward span with status 200")
	}
}

// TestClusterCoverageMerge: the router's /v1/coverage must sum the
// shards' per-behavior counters — two shards each reporting behavior 16
// as evaluated 5 / fired 1 merge to 10 / 2.
func TestClusterCoverageMerge(t *testing.T) {
	a := newFakeShard(t, "inst-a")
	b := newFakeShard(t, "inst-b")
	_, ts := newTestRouter(t, Config{Shards: []string{a.addr(), b.addr()}})

	resp, err := http.Get(ts.URL + "/v1/coverage")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/coverage = %d, want 200", resp.StatusCode)
	}
	var led obs.CoverageLedger
	if err := json.NewDecoder(resp.Body).Decode(&led); err != nil {
		t.Fatal(err)
	}
	var row *obs.CoverageRow
	for i := range led.Behaviors {
		if led.Behaviors[i].Code == 16 {
			row = &led.Behaviors[i]
			break
		}
	}
	if row == nil {
		t.Fatal("merged ledger has no row for behavior code 16")
	}
	if row.Evaluated != 10 || row.Fired != 1*2 {
		t.Errorf("behavior 16 merged to evaluated=%d fired=%d, want 10/2", row.Evaluated, row.Fired)
	}
	if led.Fired < 1 {
		t.Errorf("merged ledger reports %d fired behaviors, want >= 1", led.Fired)
	}
}
