package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/driver"
)

func TestIsArtifactKey(t *testing.T) {
	good := driver.SourceKey("int main(void){return 0;}", "t.c", driver.Options{})
	if !isArtifactKey(good) {
		t.Errorf("real SourceKey %q rejected", good)
	}
	for _, bad := range []string{"", "batch:abc", "raw:deadbeef",
		strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("0", 63)} {
		if isArtifactKey(bad) {
			t.Errorf("key %q accepted", bad)
		}
	}
}

func TestDirectoryLRU(t *testing.T) {
	d := newDirectory(3)
	for i := 0; i < 5; i++ {
		d.record(fmt.Sprintf("k%d", i), fmt.Sprintf("s%d", i))
	}
	if d.len() != 3 {
		t.Fatalf("directory holds %d keys, want the 3-entry cap honored", d.len())
	}
	if _, ok := d.lookup("k0"); ok {
		t.Error("oldest key survived past the cap")
	}
	if addr, ok := d.lookup("k4"); !ok || addr != "s4" {
		t.Errorf("lookup(k4) = %q, %v", addr, ok)
	}
	// Re-recording moves a key to the front; an update replaces the holder.
	d.lookup("k2") // freshen
	d.record("k5", "s5")
	if _, ok := d.lookup("k2"); !ok {
		t.Error("freshened key was evicted before a staler one")
	}
	d.record("k2", "elsewhere")
	if addr, _ := d.lookup("k2"); addr != "elsewhere" {
		t.Errorf("updated holder = %q, want elsewhere", addr)
	}
}

// gateShard is a shard whose /v1/analyze parks until released, so a test
// can observe exactly how many requests the router lets through while one
// is in flight.
type gateShard struct {
	ts      *httptest.Server
	arrived chan struct{}
	release chan struct{}
	hints   chan string
}

func newGateShard(t *testing.T) *gateShard {
	t.Helper()
	g := &gateShard{
		arrived: make(chan struct{}, 16),
		release: make(chan struct{}),
		hints:   make(chan string, 16),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Undefc-Instance", "gate")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		g.arrived <- struct{}{}
		g.hints <- r.Header.Get("X-Undefc-Artifact-Peer")
		<-g.release
		w.Header().Set("X-Undefc-Instance", "gate")
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"schema":"undefc.api/v1","file":"t.c","result":{"tool":"kcc","verdict":"accepted","run_ns":1}}`)
	})
	g.ts = httptest.NewServer(mux)
	t.Cleanup(g.ts.Close)
	return g
}

func (g *gateShard) addr() string { return strings.TrimPrefix(g.ts.URL, "http://") }

// TestRouterSingleFlight pins the cross-node coalescing contract: while
// one analyze for a key is in flight, identical submissions are held at
// the router — the shard sees exactly one request until the leader
// finishes, and the held followers are counted.
func TestRouterSingleFlight(t *testing.T) {
	g := newGateShard(t)
	rt, ts := newTestRouter(t, Config{Shards: []string{g.addr()}})

	const followers = 3
	var wg sync.WaitGroup
	statuses := make(chan int, followers+1)
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(analyzeBody()))
			if err != nil {
				statuses <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses <- resp.StatusCode
		}()
	}

	// The leader reaches the shard; everyone else must be parked at the
	// router, not at the shard.
	<-g.arrived
	deadline := time.After(5 * time.Second)
	for rt.flights.Stats().Parked < followers {
		select {
		case <-deadline:
			t.Fatalf("only %d followers coalesced, want %d", rt.flights.Stats().Parked, followers)
		case <-time.After(time.Millisecond):
		}
	}
	select {
	case <-g.arrived:
		t.Fatal("a follower reached the shard while the leader was in flight")
	default:
	}

	close(g.release)
	wg.Wait()
	close(statuses)
	for st := range statuses {
		if st != http.StatusOK {
			t.Errorf("coalesced request finished with status %d", st)
		}
	}
	// Every follower forwards after release — the shard serves them from
	// its (by then warm) cache; total arrivals = 1 leader + followers.
	total := 1
	for len(g.arrived) > 0 {
		<-g.arrived
		total++
	}
	if total != followers+1 {
		t.Errorf("shard saw %d requests, want %d", total, followers+1)
	}
	if m := rt.Metrics(); m.Artifact == nil || m.Artifact.Coalesced != followers {
		t.Errorf("metrics artifact = %+v, want %d coalesced", m.Artifact, followers)
	}
}

// TestRouterArtifactHintOnFailover pins the directory: once a shard has
// answered for a key, a later forward of the same key to a DIFFERENT
// shard carries the holder's address as the artifact-peer hint.
func TestRouterArtifactHintOnFailover(t *testing.T) {
	a, b := newFakeShard(t, "inst-a"), newFakeShard(t, "inst-b")
	rt, ts := newTestRouter(t, Config{
		Shards: []string{a.addr(), b.addr()},
		Retry:  RetryPolicy{MaxAttempts: 3, Base: time.Millisecond, Max: 2 * time.Millisecond},
	})
	body := analyzeBody()
	ordered := orderShards(rt, body, a, b)

	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	key := rt.routeKey("/v1/analyze", body)
	if holder, ok := rt.dir.lookup(key); !ok || holder != ordered[0].addr() {
		t.Fatalf("directory holder = %q, %v; want primary %s recorded", holder, ok, ordered[0].addr())
	}

	// Saturate the primary: the failover forward to the secondary must be
	// stamped with the primary's address.
	ordered[0].mode.Store("429")
	hint := make(chan string, 1)
	ordered[1].onAnalyze.Store(func(r *http.Request) {
		select {
		case hint <- r.Header.Get("X-Undefc-Artifact-Peer"):
		default:
		}
	})
	resp, err = http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover analyze = %d", resp.StatusCode)
	}
	select {
	case h := <-hint:
		if h != ordered[0].addr() {
			t.Errorf("failover hint = %q, want the recorded holder %s", h, ordered[0].addr())
		}
	default:
		t.Error("failover forward carried no artifact-peer hint")
	}
	if m := rt.Metrics(); m.Artifact.Hints == 0 || m.Artifact.DirectoryKeys == 0 {
		t.Errorf("metrics artifact = %+v, want hints and directory keys counted", m.Artifact)
	}
}

// TestRouterMetricsEnrichment checks the /metrics fan-out: the router's
// HTTP exposition grafts each shard's cache/artifact counters in and sums
// them into the aggregate block.
func TestRouterMetricsEnrichment(t *testing.T) {
	a := newFakeShard(t, "inst-a")
	_, ts := newTestRouter(t, Config{Shards: []string{a.addr()}})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m RouterMetrics
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Shards) != 1 || m.Shards[0].Cache == nil {
		t.Fatalf("shard cache block missing: %+v", m.Shards)
	}
	if m.Shards[0].Cache.Compiles != 2 || m.Shards[0].Artifact == nil || m.Shards[0].Artifact.DiskHits != 7 {
		t.Errorf("shard block = cache %+v artifact %+v, want the fake's counters", m.Shards[0].Cache, m.Shards[0].Artifact)
	}
	if m.Aggregate == nil || m.Aggregate.Shards != 1 ||
		m.Aggregate.Cache.Compiles != 2 || m.Aggregate.Artifact.DiskHits != 7 {
		t.Errorf("aggregate = %+v, want the single shard's sums", m.Aggregate)
	}
	if m.Artifact == nil {
		t.Error("router artifact-routing block missing")
	}
}
