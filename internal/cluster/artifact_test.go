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
)

// gateShard is a shard whose /v1/analyze parks until released, so a test
// can observe exactly how many requests the router lets through while one
// is in flight. A test registers t.Cleanup(g.open) after building the
// router over it, so a failed check releases the parked handlers before
// the servers close instead of hanging on them.
type gateShard struct {
	ts      *httptest.Server
	arrived chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateShard(t *testing.T) *gateShard {
	t.Helper()
	g := &gateShard{
		arrived: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Undefc-Instance", "gate")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) {
		g.arrived <- struct{}{}
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

// open releases the parked /v1/analyze handlers and lets later ones
// through; it may be called more than once.
func (g *gateShard) open() { g.once.Do(func() { close(g.release) }) }

// TestRouterSingleFlight pins the cross-node coalescing contract: while
// one analyze for a key is in flight, identical submissions are held at
// the router — the shard sees exactly one request until the leader
// finishes, and the held followers are counted.
func TestRouterSingleFlight(t *testing.T) {
	g := newGateShard(t)
	rt, ts := newTestRouter(t, Config{Shards: []string{g.addr()}})
	t.Cleanup(g.open)

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

	g.open()
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

// TestRouterRoutesOnBodyBytes pins placement on the raw request bytes:
// equal bodies reach the ring owner of their hash every time, bodies the
// router could not read as an analyze request (non-JSON, no source, a
// batch) still route and get the shard's answer, and the single-flight
// key is the body too — a different body is not held behind an
// in-flight one, an equal body is.
func TestRouterRoutesOnBodyBytes(t *testing.T) {
	fakes := []*fakeShard{newFakeShard(t, "inst-a"), newFakeShard(t, "inst-b"), newFakeShard(t, "inst-c")}
	instanceOf := map[string]string{}
	var addrs []string
	for _, f := range fakes {
		addrs = append(addrs, f.addr())
		instanceOf[f.addr()] = f.instance
	}
	rt, ts := newTestRouter(t, Config{Shards: addrs})
	post := func(path string, body []byte) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("X-Undefc-Instance")
	}
	for _, body := range [][]byte{
		analyzeBody(),
		[]byte(`{"source": "int main(void){return 0;}", "file": "t.c"}`),
		[]byte("not json at all"),
		[]byte(`{"file":"t.c"}`),
	} {
		want := instanceOf[rt.ring.Owner(hash64(body))]
		for i := 0; i < 3; i++ {
			if st, inst := post("/v1/analyze", body); st != http.StatusOK || inst != want {
				t.Errorf("analyze %q (try %d) = %d from %q, want 200 from the owner %q", body, i, st, inst, want)
			}
		}
	}
	batch := []byte(`{"suite":"own","tools":["kcc"]}`)
	if st, inst := post("/v1/batch", batch); st != http.StatusOK || inst != instanceOf[rt.ring.Owner(hash64(batch))] {
		t.Errorf("batch = %d from %q, want 200 from the owner of its bytes", st, inst)
	}

	g := newGateShard(t)
	grt, gts := newTestRouter(t, Config{Shards: []string{g.addr()}})
	t.Cleanup(g.open)
	var wg sync.WaitGroup
	send := func(body []byte) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(gts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("analyze %q = %d", body, resp.StatusCode)
			}
		}()
	}
	arrive := func(what string) {
		t.Helper()
		select {
		case <-g.arrived:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s never reached the shard", what)
		}
	}
	send(analyzeBody())
	arrive("the leader")
	send([]byte("not json at all"))
	arrive("a different body")
	send(analyzeBody())
	deadline := time.After(5 * time.Second)
	for grt.flights.Stats().Parked < 1 {
		select {
		case <-deadline:
			t.Fatal("an equal body was not held behind the in-flight one")
		case <-time.After(time.Millisecond):
		}
	}
	g.open()
	wg.Wait()
	if n := grt.Metrics().Artifact.Coalesced; n != 1 {
		t.Errorf("coalesced = %d, want only the equal body held", n)
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
