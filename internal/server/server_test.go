package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/tools"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures under testdata/")

// newTestServer mounts a fresh service instance on an httptest listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func post(t *testing.T, url, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func metrics(t *testing.T, url string) *MetricsResponse {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return &m
}

// zeroNS recursively zeroes every *_ns field of a decoded JSON document —
// timings are the only nondeterministic part of a response.
func zeroNS(v any) {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if strings.HasSuffix(k, "_ns") {
				if _, ok := val.(float64); ok {
					x[k] = float64(0)
				}
				continue
			}
			zeroNS(val)
		}
	case []any:
		for _, e := range x {
			zeroNS(e)
		}
	}
}

// normalize re-encodes a JSON body with *_ns fields zeroed, indented, so
// fixture diffs read like the wire format.
func normalize(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("response is not JSON: %v\n%s", err, raw)
	}
	zeroNS(doc)
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, '\n')
}

// golden compares got against testdata/<name>, rewriting it under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (run go test ./internal/server -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func readFixture(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAnalyzeGolden pins the /v1/analyze request and response shapes: the
// fixture request (an uninitialized read, CWE-457 shape) must produce the
// fixture response byte for byte, timings aside.
func TestAnalyzeGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := readFixture(t, "analyze_request.json")
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, raw.Bytes())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	golden(t, "analyze_response.json", normalize(t, raw.Bytes()))
}

// TestBatchGolden pins the /v1/batch NDJSON framing: header line, one cell
// line per case×tool in deterministic order (parallelism 1), trailer line.
func TestBatchGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := readFixture(t, "batch_request.json")
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var norm bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var doc any
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("stream line is not JSON: %v\n%s", err, line)
		}
		zeroNS(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		norm.Write(out)
		norm.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	golden(t, "batch_response.ndjson", norm.Bytes())
}

// TestPanicQuarantine is the availability contract: a request whose
// handling panics gets a structured internal-error verdict with the serve
// stage's fault attached, and the daemon keeps serving — the very next
// request succeeds.
func TestPanicQuarantine(t *testing.T) {
	rules, err := fault.ParseSpec("server.handle=panic*1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Injector: fault.NewInjector(1, rules...)})

	resp, body := post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 0;}"})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected-panic status = %d, want 500\n%s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("panic response is not an AnalyzeResponse: %v\n%s", err, body)
	}
	if ar.Result.Verdict != tools.InternalError {
		t.Errorf("verdict = %v, want internal-error", ar.Result.Verdict)
	}
	if ar.Result.Fault == nil {
		t.Fatalf("no fault attached to internal-error result:\n%s", body)
	}
	if ar.Result.Fault.Stage != fault.StageServe {
		t.Errorf("fault stage = %q, want %q", ar.Result.Fault.Stage, fault.StageServe)
	}

	// The daemon must still be serving.
	resp, body = post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 0;}"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-panic status = %d, want 200\n%s", resp.StatusCode, body)
	}
	m := metrics(t, ts.URL)
	if m.Panics != 1 {
		t.Errorf("metrics panics = %d, want 1", m.Panics)
	}
	if m.Verdicts["internal-error"] != 1 || m.Verdicts["accepted"] != 1 {
		t.Errorf("verdict counters = %v, want internal-error:1 accepted:1", m.Verdicts)
	}
}

// TestCoalesceConcurrent submits N identical requests while the first is
// deliberately held in flight (a one-shot injected delay) and asserts the
// whole burst cost exactly one compile and one analysis: one leader,
// N-1 followers, every response carrying the same verdict. Run under
// -race this also exercises the coalescer's publication ordering.
func TestCoalesceConcurrent(t *testing.T) {
	const n = 6
	rules, err := fault.ParseSpec("server.handle=delay:500ms*1")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(1, rules...)
	leaderIn := make(chan struct{})
	inj.OnFire(func(fault.Hit) { close(leaderIn) })
	srv, ts := newTestServer(t, Config{Injector: inj})

	req := AnalyzeRequest{Source: "int main(void){int x; return x;}", File: "dup.c"}
	type reply struct {
		status int
		resp   AnalyzeResponse
	}
	replies := make([]reply, n)
	var wg sync.WaitGroup
	launch := func(i int) {
		defer wg.Done()
		b, _ := json.Marshal(req)
		httpResp, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Errorf("request %d: %v", i, err)
			return
		}
		defer httpResp.Body.Close()
		replies[i].status = httpResp.StatusCode
		if err := json.NewDecoder(httpResp.Body).Decode(&replies[i].resp); err != nil {
			t.Errorf("request %d: decode: %v", i, err)
		}
	}

	wg.Add(1)
	go launch(0)
	select {
	case <-leaderIn:
	case <-time.After(5 * time.Second):
		t.Fatal("leader never reached the serve stage")
	}
	// The leader is now sleeping inside its flight; everything submitted
	// from here until it wakes must coalesce onto it.
	for i := 1; i < n; i++ {
		wg.Add(1)
		go launch(i)
	}
	wg.Wait()

	var followers int
	for i, r := range replies {
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, r.status)
		}
		if r.resp.Result.Verdict != replies[0].resp.Result.Verdict {
			t.Errorf("request %d: verdict %v differs from leader's %v",
				i, r.resp.Result.Verdict, replies[0].resp.Result.Verdict)
		}
		if r.resp.Coalesced {
			followers++
		}
	}
	if followers != n-1 {
		t.Errorf("coalesced responses = %d, want %d", followers, n-1)
	}
	cs := srv.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("compiles = %d, want exactly 1 (the leader's)", cs.Misses)
	}
	m := metrics(t, ts.URL)
	if m.Coalesce.Leaders != 1 || m.Coalesce.Followers != n-1 {
		t.Errorf("coalesce stats = %+v, want 1 leader / %d followers", m.Coalesce, n-1)
	}
	if m.Verdicts[replies[0].resp.Result.Verdict.String()] != n {
		t.Errorf("verdict counter = %v, want %d for %v", m.Verdicts, n, replies[0].resp.Result.Verdict)
	}
}

// TestCoalesceLeaderRefusalNotShared: a leader refused admission (its
// client hung up while it queued) must not hand its refusal to the
// followers coalesced onto it. With the one slot held by another key, the
// leader for K queues, three followers park on it, and the leader is
// cancelled: one follower re-leads on its own request, and all three get
// 200 with one shared analysis.
func TestCoalesceLeaderRefusalNotShared(t *testing.T) {
	rules, err := fault.ParseSpec("server.handle=delay:1ms*1~hold.c")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(1, rules...)
	holding, free := make(chan struct{}), make(chan struct{})
	inj.OnFire(func(fault.Hit) { close(holding); <-free })
	srv, ts := newTestServer(t, Config{Concurrency: 1, Injector: inj})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 0;}", File: "hold.c"})
	}()
	<-holding

	body, _ := json.Marshal(AnalyzeRequest{Source: "int main(void){int x; return x;}", File: "k.c"})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor("the leader to queue", func() bool { return srv.queue.Stats().Depth == 1 })

	const followers = 3
	replies := make([]AnalyzeResponse, followers)
	statuses := make([]int, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, b := post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){int x; return x;}", File: "k.c"})
			statuses[i] = resp.StatusCode
			json.Unmarshal(b, &replies[i])
		}(i)
	}
	waitFor("the followers to park", func() bool { return srv.flights.Stats().Parked == followers })

	cancel()
	<-leaderDone
	waitFor("the leader's admission to be cancelled", func() bool { return srv.queue.Stats().Cancelled == 1 })
	close(free)
	wg.Wait()

	coalesced := 0
	for i := range replies {
		if statuses[i] != http.StatusOK {
			t.Fatalf("follower %d: status %d, want 200", i, statuses[i])
		}
		if replies[i].Result.Verdict != replies[0].Result.Verdict {
			t.Errorf("follower %d: verdict %v differs from %v", i, replies[i].Result.Verdict, replies[0].Result.Verdict)
		}
		if replies[i].Coalesced {
			coalesced++
		}
	}
	if coalesced != followers-1 {
		t.Errorf("coalesced replies = %d, want %d (one follower re-leads)", coalesced, followers-1)
	}
	if cs := srv.CacheStats(); cs.Misses != 2 {
		t.Errorf("compiles = %d, want 2 (hold.c and one for k.c)", cs.Misses)
	}
	if st := metrics(t, ts.URL).Coalesce; st.Leaders != 3 || st.Followers != followers-1 {
		t.Errorf("coalesce stats = %+v, want 3 leaders / %d followers", st, followers-1)
	}
}

// TestQueueBackpressure exercises the admission queue directly: capacity
// concurrency=1 depth=1 means one executes, one waits, the third is
// refused immediately, and a waiter whose context ends is released.
func TestQueueBackpressure(t *testing.T) {
	q := newQueue(1, 1)
	release, err := q.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	admitted := make(chan func(), 1)
	go func() {
		r2, err := q.Acquire(context.Background())
		if err != nil {
			t.Errorf("waiter: %v", err)
			return
		}
		admitted <- r2
	}()
	// Wait until the waiter is counted before testing rejection.
	deadline := time.Now().Add(5 * time.Second)
	for q.Stats().Depth == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := q.Acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third acquire: err = %v, want ErrQueueFull", err)
	}

	release()
	var r2 func()
	select {
	case r2 = <-admitted:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never admitted after release")
	}
	r2()

	ctx, cancel := context.WithCancel(context.Background())
	release, err = q.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		_, err := q.Acquire(ctx)
		errc <- err
	}()
	for q.Stats().Depth == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: err = %v, want context.Canceled", err)
	}
	release()

	st := q.Stats()
	if st.Admitted != 3 || st.Rejected != 1 || st.Cancelled != 1 {
		t.Errorf("stats = %+v, want admitted 3 / rejected 1 / cancelled 1", st)
	}
	if st.Depth != 0 || st.Active != 0 {
		t.Errorf("queue not drained: %+v", st)
	}
}

// TestQueueFullHTTP drives the backpressure path over the wire: with one
// slot and zero wait depth, a second concurrent request answers 429 with
// Retry-After while the first is still running.
func TestQueueFullHTTP(t *testing.T) {
	rules, err := fault.ParseSpec("server.handle=delay:500ms*1")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(1, rules...)
	leaderIn := make(chan struct{})
	inj.OnFire(func(fault.Hit) { close(leaderIn) })
	// depth -1 is not expressible (0 defaults to 64), so use depth 1 and
	// fill the wait line with a second long request... simpler: concurrency
	// 1, depth 1, and three requests: run, wait, reject.
	_, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1, Injector: inj})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 0;}", File: "a.c"})
	}()
	<-leaderIn

	// Occupy the single wait slot with a *different* source (no coalescing).
	wg.Add(1)
	waiting := make(chan struct{})
	go func() {
		defer wg.Done()
		close(waiting)
		post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 1;}", File: "b.c"})
	}()
	<-waiting
	// Give the waiter time to reach the queue before the probe.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if m := metrics(t, ts.URL); m.Queue.Depth >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, body := post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 2;}", File: "c.c"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code != "queue-full" {
		t.Errorf("429 body = %s, want code queue-full", body)
	}
	wg.Wait()
}

// TestBadRequests sweeps the request-validation edges.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSourceBytes: 256})
	cases := []struct {
		name   string
		path   string
		body   string
		status int
		code   string
	}{
		{"empty source", "/v1/analyze", `{}`, 400, "bad-request"},
		{"malformed json", "/v1/analyze", `{"source":`, 400, "bad-request"},
		{"unknown field", "/v1/analyze", `{"source":"int main(void){}","nope":1}`, 400, "bad-request"},
		{"unknown model", "/v1/analyze", `{"source":"int main(void){}","model":"PDP11"}`, 400, "bad-request"},
		{"unknown tool", "/v1/analyze", `{"source":"int main(void){}","tool":"lint"}`, 400, "bad-request"},
		{"bad timeout", "/v1/analyze", `{"source":"int main(void){}","timeout":"fast"}`, 400, "bad-request"},
		{"oversized body", "/v1/analyze", `{"source":"` + strings.Repeat("x", 300) + `"}`, 413, "too-large"},
		{"suite and cases", "/v1/batch", `{"suite":"juliet","cases":[{"name":"a","source":"int main(void){}"}]}`, 400, "bad-request"},
		{"unknown suite", "/v1/batch", `{"suite":"spec2000"}`, 400, "bad-request"},
		{"empty batch", "/v1/batch", `{}`, 400, "bad-request"},
		{"unnamed case", "/v1/batch", `{"cases":[{"source":"int main(void){}"}]}`, 400, "bad-request"},
		{"explore empty", "/v1/explore", `{}`, 400, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var er ErrorResponse
			if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
				t.Fatalf("error body is not an ErrorResponse: %v", err)
			}
			if resp.StatusCode != tc.status || er.Error.Code != tc.code {
				t.Errorf("got %d %q, want %d %q (%s)", resp.StatusCode, er.Error.Code, tc.status, tc.code, er.Error.Message)
			}
		})
	}
}

// TestRouteDiscipline covers the method check and the 404 fallback.
func TestRouteDiscipline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/analyze = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Errorf("Allow = %q, want POST", allow)
	}
	resp, err = http.Get(ts.URL + "/no/such/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route = %d, want 404", resp.StatusCode)
	}
}

// TestHealthzDrain covers the liveness/readiness split: /healthz stays
// 200 for the whole process lifetime (a draining shard is still alive —
// restarting it would lose the drain), while /readyz flips to 503 +
// Retry-After once draining so a router stops routing to it.
func TestHealthzDrain(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusOK
		if path == "/readyz" {
			// No compile has happened yet: the shard is cold.
			want = http.StatusServiceUnavailable
		}
		if resp.StatusCode != want {
			t.Errorf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	if err := srv.Warmup(context.Background()); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("warm readyz = %d, want 200", resp.StatusCode)
	}
	srv.SetDraining(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining healthz = %d, want 200 (liveness, not readiness)", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("draining readyz body = %q, want to mention draining", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining readyz without Retry-After")
	}
	if !metrics(t, ts.URL).Draining {
		t.Error("metrics does not report draining")
	}
}

// TestAdaptiveRetryAfter: the backpressure pacing hint is derived from
// backlog × recent service time across the executor count, not a
// hardcoded "1" — a router backing off by it arrives when a slot is
// plausibly free.
func TestAdaptiveRetryAfter(t *testing.T) {
	srv, ts := newTestServer(t, Config{Concurrency: 1})
	// Prime the EWMA as if recent requests took ~8s each: with an empty
	// queue the backlog is just the arrival itself, so the hint is 8s.
	srv.ewmaServiceNS.Store((8 * time.Second).Nanoseconds())
	srv.SetDraining(true)
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "8" {
		t.Errorf("Retry-After = %q, want \"8\" (1 backlog × 8s EWMA / 1 executor)", got)
	}
	// Before any request has been observed the hint degrades to 1s.
	srv.ewmaServiceNS.Store(0)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("cold Retry-After = %q, want \"1\"", got)
	}
}

// TestInstanceHeader: every response carries the process's boot identity
// (and the shard name when configured) — the handles a cluster router
// uses to attribute delivered verdicts to incarnations.
func TestInstanceHeader(t *testing.T) {
	srv, ts := newTestServer(t, Config{ShardID: "s7"})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Undefc-Instance"); got == "" || got != srv.Instance() {
		t.Errorf("X-Undefc-Instance = %q, want %q", got, srv.Instance())
	}
	if got := resp.Header.Get("X-Undefc-Shard"); got != "s7" {
		t.Errorf("X-Undefc-Shard = %q, want s7", got)
	}
	if m := metrics(t, ts.URL); m.Instance != srv.Instance() || m.ShardID != "s7" {
		t.Errorf("metrics instance/shard = %q/%q, want %q/s7", m.Instance, m.ShardID, srv.Instance())
	}
}

// TestExplore drives /v1/explore end to end on a program whose behavior
// depends on evaluation order (paper §2.5.2's shape).
func TestExplore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := `
int x = 0;
int set(void) { x = 1; return 1; }
int get(void) { return x; }
int main(void) { return set() + get(); }
`
	resp, body := post(t, ts.URL, "/v1/explore", ExploreRequest{Source: src, File: "order.c"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	var er ExploreResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatal(err)
	}
	if er.Schema != APISchema || er.Runs == 0 || len(er.Outcomes) == 0 {
		t.Errorf("explore response = %+v, want schema %q with runs and outcomes", er, APISchema)
	}
	// A compile error is a client error, not a server one.
	resp, body = post(t, ts.URL, "/v1/explore", ExploreRequest{Source: "int main(void) { return }"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("compile-error status = %d, want 422\n%s", resp.StatusCode, body)
	}
}

// TestBatchSuiteStream runs a built-in suite through /v1/batch and checks
// the stream frames: header cases == cell lines == trailer accounting.
func TestBatchSuiteStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := post(t, ts.URL, "/v1/batch", BatchRequest{Suite: "own", Parallelism: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) < 3 {
		t.Fatalf("stream has %d lines, want header + cells + trailer", len(lines))
	}
	var hdr BatchHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != APISchema || hdr.Cases == 0 {
		t.Fatalf("header = %+v", hdr)
	}
	cells := lines[1 : len(lines)-1]
	if len(cells) != hdr.Cases*len(hdr.Tools) {
		t.Errorf("cell lines = %d, want %d cases × %d tools", len(cells), hdr.Cases, len(hdr.Tools))
	}
	seen := map[string]bool{}
	for _, l := range cells {
		var c BatchCellLine
		if err := json.Unmarshal(l, &c); err != nil {
			t.Fatalf("cell line: %v\n%s", err, l)
		}
		seen[c.Case+"/"+c.Tool] = true
	}
	if len(seen) != len(cells) {
		t.Errorf("duplicate cells in stream: %d distinct of %d", len(seen), len(cells))
	}
	var tr BatchTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Error != nil {
		t.Errorf("trailer = %+v, want done with no error", tr)
	}
	// Every case does exactly one cache lookup (errors are a subset of
	// compiles, not a third bucket).
	if got := tr.Frontend.Compiles + tr.Frontend.CacheHits; got != hdr.Cases {
		t.Errorf("frontend accounting covers %d cases, want %d", got, hdr.Cases)
	}
	m := metrics(t, ts.URL)
	var counted int64
	for _, n := range m.BatchCells {
		counted += n
	}
	if counted != int64(len(cells)) {
		t.Errorf("batch_cells counters sum to %d, want %d", counted, len(cells))
	}
}

// TestBatchPanicTrailer: a panic mid-batch (after the header is on the
// wire) must surface as an error trailer, not a dead connection, and the
// server must keep serving.
func TestBatchPanicTrailer(t *testing.T) {
	rules, err := fault.ParseSpec("runner.analyze=panic*1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Injector: fault.NewInjector(1, rules...)})
	resp, body := post(t, ts.URL, "/v1/batch", BatchRequest{
		Cases: []BatchCase{{Name: "one", Source: "int main(void){return 0;}"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var tr BatchTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	// runner.analyze panics are contained per cell by the runner itself, so
	// the batch completes with the cell carrying an internal-error verdict.
	if !tr.Done {
		t.Errorf("trailer = %+v, want done (cell-level containment)", tr)
	}
	var cell BatchCellLine
	if err := json.Unmarshal(lines[1], &cell); err != nil {
		t.Fatal(err)
	}
	if cell.Verdict != tools.InternalError {
		t.Errorf("cell verdict = %v, want internal-error", cell.Verdict)
	}
	// Daemon lives.
	resp, _ = post(t, ts.URL, "/v1/analyze", AnalyzeRequest{Source: "int main(void){return 0;}"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-panic analyze = %d, want 200", resp.StatusCode)
	}
}

// TestConfigEndpoint sanity-checks /debug/config reflects defaulting.
func TestConfigEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{QueueDepth: 7, Model: "ILP32"})
	resp, err := http.Get(ts.URL + "/debug/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if cr.QueueDepth != 7 || cr.Model != "ILP32" || cr.Concurrency < 1 || cr.DefaultTimeout == "" {
		t.Errorf("config = %+v", cr)
	}
}

// TestParseTimeout pins the clamp rules.
func TestParseTimeout(t *testing.T) {
	def, max := 5*time.Second, 30*time.Second
	cases := []struct {
		in   string
		want time.Duration
		err  bool
	}{
		{"", def, false},
		{"2s", 2 * time.Second, false},
		{"1m", max, false},  // above ceiling: clamped
		{"-1s", max, false}, // nonsense sign: clamped
		{"fast", 0, true},
	}
	for _, tc := range cases {
		got, err := parseTimeout(tc.in, def, max)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("parseTimeout(%q) = %v, %v; want %v, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// TestExploreGolden pins the buffered /v1/explore document: the paper's
// setDenom program (§2.5.2) at parallelism 1 with default POR, so outcome
// discovery order, run counts and pruning stats are all deterministic.
func TestExploreGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := readFixture(t, "explore_request.json")
	resp, err := http.Post(ts.URL+"/v1/explore", "application/json", bytes.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200\n%s", resp.StatusCode, raw.Bytes())
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	golden(t, "explore_response.json", normalize(t, raw.Bytes()))
}

// TestExploreStreamGolden pins the streamed form of the same request:
// Accept: application/x-ndjson negotiates header / outcome-line / trailer
// frames, exactly like /v1/batch.
func TestExploreStreamGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req, err := http.NewRequest("POST", ts.URL+"/v1/explore",
		bytes.NewReader(readFixture(t, "explore_request.json")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	var norm bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var doc any
		if err := json.Unmarshal(line, &doc); err != nil {
			t.Fatalf("stream line is not JSON: %v\n%s", err, line)
		}
		zeroNS(doc)
		out, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		norm.Write(out)
		norm.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	golden(t, "explore_response.ndjson", norm.Bytes())
}

// TestExploreStreamAccounting checks the streamed frames against each
// other and against /metrics: outcome lines == trailer count, trailer
// done, and the server-side explore counters advance by this search.
func TestExploreStreamAccounting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body, _ := json.Marshal(ExploreRequest{
		Source: `
int x = 0;
int set(void) { x = 1; return 1; }
int get(void) { return x; }
int main(void) { return set() + get(); }
`,
		Parallelism: 2,
	})
	req, err := http.NewRequest("POST", ts.URL+"/v1/explore", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, raw.Bytes())
	}
	lines := bytes.Split(bytes.TrimSpace(raw.Bytes()), []byte("\n"))
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want header + outcomes + trailer", len(lines))
	}
	var hdr ExploreHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Schema != APISchema || hdr.MaxRuns == 0 {
		t.Fatalf("header = %+v", hdr)
	}
	outcomes := lines[1 : len(lines)-1]
	for _, l := range outcomes {
		var o ExploreOutcomeLine
		if err := json.Unmarshal(l, &o); err != nil {
			t.Fatalf("outcome line: %v\n%s", err, l)
		}
	}
	var tr ExploreTrailer
	if err := json.Unmarshal(lines[len(lines)-1], &tr); err != nil {
		t.Fatal(err)
	}
	if !tr.Done || tr.Error != nil {
		t.Fatalf("trailer = %+v, want done with no error", tr)
	}
	if tr.Outcomes != len(outcomes) {
		t.Errorf("trailer counts %d outcomes, stream carried %d lines", tr.Outcomes, len(outcomes))
	}
	if tr.Stats == nil || tr.Stats.OrdersExplored != int64(tr.Runs) {
		t.Errorf("trailer stats = %+v, want orders_explored == runs %d", tr.Stats, tr.Runs)
	}
	m := metrics(t, ts.URL)
	if m.Explore == nil || m.Explore.Searches != 1 {
		t.Fatalf("metrics explore = %+v, want one search", m.Explore)
	}
	if m.Explore.OrdersExplored != int64(tr.Runs) {
		t.Errorf("metrics orders = %d, trailer runs = %d", m.Explore.OrdersExplored, tr.Runs)
	}
	// The Prometheus rendering carries the same counters.
	resp2, err := http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var prom bytes.Buffer
	prom.ReadFrom(resp2.Body)
	if !bytes.Contains(prom.Bytes(), []byte("undefc_explore_searches_total 1")) {
		t.Errorf("prometheus output lacks explore counters:\n%s", prom.Bytes())
	}
}
