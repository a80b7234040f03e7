package server

// Tests for the observability surfaces: sampled request traces, the
// Prometheus exposition on /metrics, and the debug listener's
// metrics-window reset.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// normalizeTrace strips the nondeterminism out of a Chrome trace body so
// it can be pinned as a golden fixture: timestamps and durations go to
// zero, the (random) trace ID thread row becomes 1, and span IDs (global
// counters) are renumbered in first-seen order. Parent links resolve
// through the same renumbering, so the tree shape survives.
func normalizeTrace(t *testing.T, raw []byte) []byte {
	t.Helper()
	var tr obs.ChromeTrace
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatalf("trace body is not Chrome trace JSON: %v\n%s", err, raw)
	}
	renum := map[string]string{"0": "0"}
	next := 1
	id := func(old string) string {
		if got, ok := renum[old]; ok {
			return got
		}
		n := strconv.Itoa(next)
		next++
		renum[old] = n
		return n
	}
	for i := range tr.TraceEvents {
		e := &tr.TraceEvents[i]
		e.TS, e.Dur, e.TID = 0, 0, 1
		e.Args["span"] = id(e.Args["span"])
		e.Args["parent"] = id(e.Args["parent"])
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&tr); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestTraceGolden pins the span tree of one traced /v1/analyze request:
// handle → queue → compile → interp, with the verdict, cache, and model
// attributes each stage contributes. The fixture request is the same
// CWE-457 shape the response golden uses.
func TestTraceGolden(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 1})
	req := readFixture(t, "analyze_request.json")
	resp, body := postRaw(t, ts.URL, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d\n%s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.TraceID == "" {
		t.Fatal("sampled response carries no trace_id")
	}

	traceResp, err := http.Get(ts.URL + "/v1/trace/" + ar.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer traceResp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(traceResp.Body)
	if traceResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s = %d\n%s", ar.TraceID, traceResp.StatusCode, raw.Bytes())
	}
	golden(t, "trace_analyze.golden.json", normalizeTrace(t, raw.Bytes()))

	// Unknown IDs are 404s, malformed ones 400s — never panics or 500s.
	for _, tc := range []struct {
		id   string
		want int
	}{
		{"ffffffffffffffff", http.StatusNotFound},
		{"not-hex", http.StatusBadRequest},
		{"", http.StatusBadRequest},
	} {
		resp, err := http.Get(ts.URL + "/v1/trace/" + tc.id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET /v1/trace/%q = %d, want %d", tc.id, resp.StatusCode, tc.want)
		}
	}
}

// TestForwardedTraceSamplingOff checks that a shard which samples nothing
// still serves the trace of a request that arrived with a trace identity
// (as a router forwards it): /v1/trace renders the same spans /v1/spans
// lists, both read from the one span ring.
func TestForwardedTraceSamplingOff(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 0})
	const id = "00000000000000cd"
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/analyze",
		bytes.NewReader(readFixture(t, "analyze_request.json")))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Undefc-Trace-Id", id)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", resp.StatusCode)
	}

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var tr obs.ChromeTrace
	get("/v1/trace/"+id, &tr)
	var sr SpansResponse
	get("/v1/spans/"+id, &sr)

	var fromTrace, fromSpans []string
	for _, e := range tr.TraceEvents {
		fromTrace = append(fromTrace, e.Args["span"])
	}
	for _, s := range sr.Spans {
		fromSpans = append(fromSpans, strconv.FormatUint(s.ID, 10))
	}
	// Both endpoints order by start time, then span ID.
	if len(fromTrace) == 0 || strings.Join(fromTrace, ",") != strings.Join(fromSpans, ",") {
		t.Errorf("span IDs: /v1/trace %v, /v1/spans %v; want the same non-empty list", fromTrace, fromSpans)
	}
}

// TestTraceSampling checks the every-Nth contract: with TraceSample=2,
// alternate requests carry a trace_id and the others do not.
func TestTraceSampling(t *testing.T) {
	_, ts := newTestServer(t, Config{TraceSample: 2})
	req := readFixture(t, "analyze_request.json")
	var traced, untraced int
	for i := 0; i < 4; i++ {
		_, body := postRaw(t, ts.URL, "/v1/analyze", req)
		var ar AnalyzeResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		if ar.TraceID != "" {
			traced++
		} else {
			untraced++
		}
	}
	if traced != 2 || untraced != 2 {
		t.Errorf("TraceSample=2 over 4 requests: traced=%d untraced=%d, want 2/2", traced, untraced)
	}
}

func postRaw(t *testing.T, url, path string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewReader(body))
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

// TestMetricsPrometheus checks the content negotiation on /metrics: JSON
// stays the default, Accept: text/plain (a Prometheus scraper) or
// ?format=prometheus switches to the text exposition, and an explicit
// application/json wins over a scraper-ish wildcard.
func TestMetricsPrometheus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := readFixture(t, "analyze_request.json")
	postRaw(t, ts.URL, "/v1/analyze", req)

	get := func(accept, query string) (*http.Response, string) {
		t.Helper()
		r, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp, b.String()
	}

	// Default stays JSON — existing clients must not see a format change.
	resp, body := get("", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	var m MetricsResponse
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	if m.Latency["e2e"] == nil || m.Latency["e2e"].Count != 1 {
		t.Errorf("latency[e2e] = %+v, want count 1", m.Latency["e2e"])
	}

	for _, tc := range []struct{ accept, query string }{
		{"text/plain", ""},
		{"application/openmetrics-text;version=1.0.0", ""},
		{"", "?format=prometheus"},
	} {
		resp, body := get(tc.accept, tc.query)
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("accept=%q query=%q: Content-Type = %q, want text/plain", tc.accept, tc.query, ct)
		}
		for _, want := range []string{
			"# TYPE undefc_requests_total counter",
			`undefc_requests_total{route="/v1/analyze"} 1`,
			`undefc_verdicts_total{verdict="flagged"} 1`,
			"undefc_latency_seconds_count{stage=\"e2e\"} 1",
			"undefc_latency_seconds_bucket{stage=\"e2e\",le=\"+Inf\"} 1",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("accept=%q query=%q: exposition missing %q\n%s", tc.accept, tc.query, want, body)
			}
		}
	}

	// An explicit JSON preference is honored even alongside text/plain.
	resp, body = get("application/json, text/plain", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Accept json+text: Content-Type = %q, want application/json", ct)
	}
	_ = body
}

// TestDebugReset exercises the debug surface: POST /debug/metrics/reset
// clears the latency window and rebases the queue high-water marks, GET
// is refused, and unknown debug routes 404.
func TestDebugReset(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	dbg := httptest.NewServer(srv.DebugHandler())
	defer dbg.Close()

	req := readFixture(t, "analyze_request.json")
	postRaw(t, ts.URL, "/v1/analyze", req)
	if m := metrics(t, ts.URL); m.Latency["e2e"] == nil || m.Latency["e2e"].Count != 1 {
		t.Fatalf("precondition: latency[e2e] = %+v, want count 1", m.Latency["e2e"])
	}

	resp, err := http.Post(dbg.URL+"/debug/metrics/reset", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /debug/metrics/reset = %d, want 200", resp.StatusCode)
	}
	if m := metrics(t, ts.URL); m.Latency != nil {
		t.Errorf("latency after reset = %+v, want empty window", m.Latency)
	}

	// Monotonic counters survive the reset — only the window rebases.
	if m := metrics(t, ts.URL); m.Requests["/v1/analyze"] != 1 {
		t.Errorf("requests[/v1/analyze] after reset = %d, want 1 (counters are not windowed)", m.Requests["/v1/analyze"])
	}

	getResp, err := http.Get(dbg.URL + "/debug/metrics/reset")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /debug/metrics/reset = %d, want 405", getResp.StatusCode)
	}

	nf, err := http.Get(dbg.URL + "/debug/nope")
	if err != nil {
		t.Fatal(err)
	}
	nf.Body.Close()
	if nf.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/nope = %d, want 404", nf.StatusCode)
	}

	// The pprof index is mounted (the whole point of the second listener).
	pp, err := http.Get(dbg.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/ = %d, want 200", pp.StatusCode)
	}
}
