// Command undefbench is a closed-loop load generator for undefd: N
// connections each submit analyze requests back-to-back for a fixed
// duration, drawn from the Figure-2 (Juliet-style) corpus with a tunable
// duplicate fraction so request coalescing has something to coalesce.
// It reports throughput, the latency distribution (p50/p95/p99), the
// verdict tally, the coalescing hit rate, and — the part a load test is
// for — cross-checks its own client-side tally against the server's
// /metrics counters and verifies the daemon is still alive and drained.
//
//	$ undefbench -spawn -c 64 -d 10s
//	$ undefbench -addr 127.0.0.1:8790 -c 64 -d 10s -dup 0.5
//
// Flags:
//
//	-addr      bench an already-running daemon (mutually exclusive -spawn)
//	-spawn     start an in-process server on a free port and bench that
//	-c N       concurrent closed-loop connections (default 64)
//	-d dur     benchmark duration (default 10s)
//	-dup f     fraction of requests drawn from a small hot set (default 0.5)
//	-unique    give every request a distinct source, defeating the compile
//	           cache and coalescer — each request then pays a full frontend
//	           pass, which is the configuration for comparing server-side
//	           /metrics latency against the client-side measurement
//	-seed n    workload RNG seed (replayable)
//	-inject    with -spawn: fault-injection spec, e.g. 'server.handle=panic%0.01'
//	-explore   drive the streamed /v1/explore endpoint instead of
//	           /v1/analyze, over an order-sensitive corpus, auditing the
//	           serving invariants per response: NDJSON frames well-formed,
//	           trailer outcome count == streamed line tally, trailer stats
//	           consistent — then the /metrics explore counters against the
//	           client-side search count
//	-json      emit the report as JSON
//	-cluster N spawn N real shard processes plus a consistent-hash router
//	           and bench through the router; the audit then covers the
//	           cluster serving invariants (see cluster.go)
//	-kill K    with -cluster: SIGKILL K shards mid-load and restart them,
//	           proving failover keeps every invariant
//
// Exit status is non-zero when the daemon died, the verdict cross-check
// (or, under -explore, the frame/counter audit; under -cluster, the
// cluster invariants audit) fails, the queue did not drain, or /metrics
// was unreachable at audit time — an invariant that cannot be checked is
// treated as an invariant that failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/suite"
)

type workerStats struct {
	latencies []time.Duration
	verdicts  map[string]int64
	coalesced int64
	rejected  int64 // 429 backpressure
	// unavailable counts structured 503 refusals (-cluster: every replica
	// failed within the retry budget). An honest, typed refusal is
	// backpressure, not a crash — the zero-crash audit excludes it.
	unavailable int64
	errors      int64 // transport or non-API failures
	searches    int64 // -explore: streams that passed the frame audit
	frameErrs   int64 // -explore: streams that violated a serving invariant
}

// report is the machine-readable benchmark result (-json).
type report struct {
	Addr        string  `json:"addr"`
	Connections int     `json:"connections"`
	DurationNS  int64   `json:"duration_ns"`
	Requests    int64   `json:"requests"`
	Rejected    int64   `json:"rejected"`
	Errors      int64   `json:"errors"`
	Throughput  float64 `json:"requests_per_sec"`
	P50NS       int64   `json:"p50_ns"`
	P95NS       int64   `json:"p95_ns"`
	P99NS       int64   `json:"p99_ns"`
	MaxNS       int64   `json:"max_ns"`
	// ServerP*NS are the daemon's own end-to-end quantiles over this run's
	// window, computed from the /metrics latency histogram delta
	// (after − before). Client-side adds network + HTTP framing; the gap
	// between the two columns is exactly that overhead.
	ServerP50NS int64            `json:"server_p50_ns,omitempty"`
	ServerP95NS int64            `json:"server_p95_ns,omitempty"`
	ServerP99NS int64            `json:"server_p99_ns,omitempty"`
	Verdicts    map[string]int64 `json:"verdicts"`
	Coalesced   int64            `json:"coalesced"`
	CoalesceHit float64          `json:"coalesce_hit_rate"`
	// Searches and FrameErrors are the -explore audit: streams whose
	// frames held every serving invariant, and streams that broke one.
	Searches    int64 `json:"searches,omitempty"`
	FrameErrors int64 `json:"frame_errors,omitempty"`
	ServerOK    bool  `json:"server_alive"`
	TallyMatch  bool  `json:"metrics_match"`
	QueueEmpty  bool  `json:"queue_drained"`
}

func main() {
	addr := flag.String("addr", "", "address of a running undefd (host:port)")
	spawn := flag.Bool("spawn", false, "start an in-process server and bench it")
	conns := flag.Int("c", 64, "concurrent closed-loop connections")
	dur := flag.Duration("d", 10*time.Second, "benchmark duration")
	dup := flag.Float64("dup", 0.5, "fraction of requests drawn from the hot set (coalescing fodder)")
	unique := flag.Bool("unique", false, "make every request's source distinct (defeats cache + coalescer)")
	heavy := flag.Int("heavy", 0, "pad every request with N synthetic functions (scales frontend work per request)")
	seed := flag.Int64("seed", 1, "workload RNG seed")
	explore := flag.Bool("explore", false, "drive the streamed /v1/explore endpoint and audit its frames")
	injectSpec := flag.String("inject", "", "with -spawn: fault-injection rules for the server")
	injectSeed := flag.Uint64("inject-seed", 1, "seed for probabilistic injection rules")
	asJSON := flag.Bool("json", false, "emit the report as JSON")
	clusterN := flag.Int("cluster", 0, "spawn N shard processes + a router and bench through the router")
	killN := flag.Int("kill", 0, "with -cluster: SIGKILL this many shards mid-load and restart them")
	shardExec := flag.Bool("shard-exec", false, "internal: run as a cluster shard process")
	shardAddr := flag.String("shard-addr", "", "internal: the -shard-exec listen address")
	shardName := flag.String("shard-id", "", "internal: the -shard-exec shard name")
	shardArtDir := flag.String("shard-artifact-dir", "", "internal: the -shard-exec artifact directory")
	shardPeers := flag.String("shard-peers", "", "internal: the -shard-exec comma-separated peer list")
	flag.Parse()

	if *shardExec {
		os.Exit(runShardProc(*shardAddr, *shardName, *shardArtDir, *shardPeers))
	}
	if *clusterN > 0 {
		os.Exit(runCluster(clusterOpts{
			shards:     *clusterN,
			kill:       *killN,
			conns:      *conns,
			dur:        *dur,
			dup:        *dup,
			seed:       *seed,
			injectSpec: *injectSpec,
			injectSeed: *injectSeed,
			asJSON:     *asJSON,
		}))
	}

	if (*addr == "") == !*spawn {
		fmt.Fprintln(os.Stderr, "undefbench: need exactly one of -addr or -spawn")
		os.Exit(2)
	}
	base := *addr
	if *spawn {
		var stop func()
		var err error
		base, stop, err = spawnServer(*injectSpec, *injectSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "undefbench: %v\n", err)
			os.Exit(1)
		}
		defer stop()
	}
	url := "http://" + base

	// The workload: the Figure-2 corpus. The hot set is small enough that
	// 64 closed-loop connections keep several identical submissions in
	// flight at once — exactly the traffic shape coalescing exists for.
	corpus := suite.Juliet().Cases
	if len(corpus) == 0 {
		fmt.Fprintln(os.Stderr, "undefbench: empty corpus")
		os.Exit(1)
	}
	hot := corpus
	if len(hot) > 4 {
		hot = corpus[:4]
	}

	// -heavy pads each submission into a larger translation unit: the
	// corpus programs are a few lines, so at network-negligible service
	// times the padding is what lets per-request analysis cost dominate
	// the fixed HTTP overhead in a latency comparison.
	var pad strings.Builder
	for i := 0; i < *heavy; i++ {
		fmt.Fprintf(&pad, "static int pad%d(int x) { return x + %d; }\n", i, i)
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: *conns}}
	before, err := fetchMetrics(client, url)
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: /metrics before run: %v\n", err)
		os.Exit(1)
	}

	deadline := time.Now().Add(*dur)
	stats := make([]workerStats, *conns)
	var wg sync.WaitGroup
	for w := 0; w < *conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(w)))
			st := &stats[w]
			st.verdicts = make(map[string]int64)
			seq := 0
			for time.Now().Before(deadline) {
				if *explore {
					oneExplore(client, url, &exploreCorpus[rng.Intn(len(exploreCorpus))], st)
					continue
				}
				c := &corpus[rng.Intn(len(corpus))]
				if rng.Float64() < *dup {
					c = &hot[rng.Intn(len(hot))]
				}
				if *unique || *heavy > 0 {
					uc := *c
					uc.Source = pad.String() + c.Source
					if *unique {
						// A distinct leading comment changes the source
						// identity: every request is a compile-cache miss
						// and never coalesces, so each one pays the full
						// frontend + analysis cost it claims to measure.
						uc.Source = fmt.Sprintf("/* bench %d.%d */\n%s", w, seq, uc.Source)
						seq++
					}
					c = &uc
				}
				oneRequest(client, url, c, st)
			}
		}(w)
	}
	wg.Wait()
	elapsed := *dur

	// Merge worker shards.
	rep := report{Addr: base, Connections: *conns, DurationNS: elapsed.Nanoseconds(), Verdicts: map[string]int64{}}
	var all []time.Duration
	for i := range stats {
		st := &stats[i]
		all = append(all, st.latencies...)
		rep.Coalesced += st.coalesced
		rep.Rejected += st.rejected
		rep.Errors += st.errors
		rep.Searches += st.searches
		rep.FrameErrors += st.frameErrs
		for v, n := range st.verdicts {
			rep.Verdicts[v] += n
		}
	}
	rep.Requests = int64(len(all))
	rep.Throughput = float64(rep.Requests) / elapsed.Seconds()
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.P50NS = percentile(all, 0.50).Nanoseconds()
	rep.P95NS = percentile(all, 0.95).Nanoseconds()
	rep.P99NS = percentile(all, 0.99).Nanoseconds()
	if n := len(all); n > 0 {
		rep.MaxNS = all[n-1].Nanoseconds()
	}
	if rep.Requests > 0 {
		rep.CoalesceHit = float64(rep.Coalesced) / float64(rep.Requests)
	}

	// The verification pass: daemon alive, counters honest, queue empty.
	// An unreachable /metrics is a hard audit failure, loudly attributed:
	// nothing below can be checked without it.
	after, err := fetchMetrics(client, url)
	rep.ServerOK = err == nil
	if err != nil {
		fmt.Fprintf(os.Stderr, "undefbench: /metrics unreachable at audit time: %v\n", err)
	}
	if rep.ServerOK {
		rep.TallyMatch = true
		if *explore {
			// The explore audit: every clean stream the clients counted
			// must appear in the server's search counter, and no stream
			// may have broken a framing invariant.
			rep.TallyMatch = exploreSearches(after)-exploreSearches(before) == rep.Searches &&
				rep.FrameErrors == 0
		} else {
			for v, n := range rep.Verdicts {
				if after.Verdicts[v]-before.Verdicts[v] != n {
					rep.TallyMatch = false
				}
			}
			for v := range after.Verdicts {
				if _, seen := rep.Verdicts[v]; !seen && after.Verdicts[v] != before.Verdicts[v] {
					rep.TallyMatch = false
				}
			}
		}
		rep.QueueEmpty = after.Queue.Depth == 0 && after.Queue.Active == 0
		// Server-side latency over this run only: the histogram is
		// cumulative since server start, so window it by subtracting the
		// pre-run snapshot.
		if cur, ok := after.Latency["e2e"]; ok && cur != nil {
			win := cur
			if prev, ok := before.Latency["e2e"]; ok && prev != nil {
				win = cur.Sub(prev)
			}
			if win.Count > 0 {
				rep.ServerP50NS = win.Quantile(0.50)
				rep.ServerP95NS = win.Quantile(0.95)
				rep.ServerP99NS = win.Quantile(0.99)
			}
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(&rep)
	} else {
		printReport(&rep, after, before)
	}
	if !rep.ServerOK || !rep.TallyMatch || !rep.QueueEmpty {
		os.Exit(1)
	}
}

// oneRequest runs one closed-loop iteration against /v1/analyze.
func oneRequest(client *http.Client, url string, c *suite.Case, st *workerStats) {
	body, _ := json.Marshal(&server.AnalyzeRequest{Source: c.Source, File: c.Name + ".c"})
	start := time.Now()
	httpResp, err := client.Post(url+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		st.errors++
		return
	}
	data, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	lat := time.Since(start)
	if err != nil {
		st.errors++
		return
	}
	if httpResp.StatusCode == http.StatusTooManyRequests {
		st.rejected++
		return
	}
	if httpResp.StatusCode == http.StatusServiceUnavailable {
		// A 503 with the typed error body is a structured refusal — the
		// router exhausted its bounded retry budget (or the box is
		// draining) and said so honestly. That is backpressure, like a
		// 429, not a crash. A 503 with a torn or alien body still is.
		var er server.ErrorResponse
		if json.Unmarshal(data, &er) == nil && er.Schema == server.APISchema && er.Error.Code != "" {
			st.unavailable++
			return
		}
		st.errors++
		return
	}
	var resp server.AnalyzeResponse
	if jerr := json.Unmarshal(data, &resp); jerr != nil || resp.Schema != server.APISchema || resp.Result.Tool == "" {
		st.errors++
		return
	}
	st.latencies = append(st.latencies, lat)
	st.verdicts[resp.Result.Verdict.String()]++
	if resp.Coalesced {
		st.coalesced++
	}
}

// exploreCorpus is the -explore workload: small programs whose behavior
// depends on evaluation order, so every search has real work and a
// multi-outcome stream to audit.
var exploreCorpus = []suite.Case{
	{Name: "setdenom", Source: `
int d = 5;
int setDenom(int x) { return d = x; }
int main(void) { return (10/d) + setDenom(0); }
`},
	{Name: "unseq", Source: `
int main(void) {
	int x = 1;
	return x + x++;
}
`},
	{Name: "order_calls", Source: `
int x = 0;
int bump(void) { return ++x; }
int twice(void) { return x * 2; }
int main(void) { return bump() + twice(); }
`},
	{Name: "commuting_nest", Source: `
int a, b, c, d2;
int main(void) {
	return (a = 1) + (b = 1) + (c = 1) + (d2 = 1);
}
`},
}

// oneExplore runs one closed-loop iteration against the streamed
// /v1/explore, checking every serving invariant the frames promise:
// header first with the schema, each outcome line well-formed, exactly
// one trailer marked done, trailer outcome count == streamed lines, and
// trailer stats consistent with its own run counter.
func oneExplore(client *http.Client, url string, c *suite.Case, st *workerStats) {
	body, _ := json.Marshal(&server.ExploreRequest{Source: c.Source, File: c.Name + ".c", Parallelism: 2})
	req, err := http.NewRequest("POST", url+"/v1/explore", bytes.NewReader(body))
	if err != nil {
		st.errors++
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	start := time.Now()
	httpResp, err := client.Do(req)
	if err != nil {
		st.errors++
		return
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, httpResp.Body)
		st.rejected++
		return
	}
	if httpResp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, httpResp.Body)
		st.errors++
		return
	}
	var (
		hdr      server.ExploreHeader
		trailer  server.ExploreTrailer
		outcomes int
		frames   int
		broken   bool
	)
	sc := bufio.NewScanner(httpResp.Body)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		frames++
		switch {
		case frames == 1:
			if json.Unmarshal(line, &hdr) != nil || hdr.Schema != server.APISchema {
				broken = true
			}
		case trailer.Done:
			broken = true // frames after the trailer
		default:
			var o server.ExploreOutcomeLine
			if json.Unmarshal(line, &trailer) == nil && trailer.Done {
				continue
			}
			trailer = server.ExploreTrailer{}
			if json.Unmarshal(line, &o) != nil || o.Runs <= 0 {
				broken = true
				continue
			}
			outcomes++
		}
	}
	lat := time.Since(start)
	if sc.Err() != nil {
		st.errors++
		return
	}
	switch {
	case broken,
		!trailer.Done,
		trailer.Error != nil,
		trailer.Outcomes != outcomes,
		trailer.Stats == nil,
		trailer.Stats != nil && trailer.Stats.OrdersExplored != int64(trailer.Runs):
		st.frameErrs++
	default:
		st.searches++
		st.latencies = append(st.latencies, lat)
		if trailer.Exhausted {
			st.verdicts["exhausted"]++
		} else {
			st.verdicts["truncated"]++
		}
	}
}

// exploreSearches reads the explore search counter, absent-safe: a server
// that has never explored reports no block at all.
func exploreSearches(m *server.MetricsResponse) int64 {
	if m == nil || m.Explore == nil {
		return 0
	}
	return m.Explore.Searches
}

func fetchMetrics(client *http.Client, url string) (*server.MetricsResponse, error) {
	httpResp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer httpResp.Body.Close()
	var m server.MetricsResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&m); err != nil {
		return nil, err
	}
	if m.Schema != server.APISchema {
		return nil, fmt.Errorf("unexpected schema %q", m.Schema)
	}
	return &m, nil
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func printReport(rep *report, after, before *server.MetricsResponse) {
	fmt.Printf("undefbench: %d connections, %s against http://%s\n",
		rep.Connections, time.Duration(rep.DurationNS), rep.Addr)
	fmt.Printf("  requests:  %d ok, %d rejected (429), %d errors — %.1f req/s\n",
		rep.Requests, rep.Rejected, rep.Errors, rep.Throughput)
	fmt.Printf("  latency:   p50 %s · p95 %s · p99 %s · max %s  (client-side)\n",
		time.Duration(rep.P50NS), time.Duration(rep.P95NS), time.Duration(rep.P99NS), time.Duration(rep.MaxNS))
	if rep.ServerP50NS > 0 {
		fmt.Printf("             p50 %s · p95 %s · p99 %s  (server-side, /metrics window)\n",
			time.Duration(rep.ServerP50NS), time.Duration(rep.ServerP95NS), time.Duration(rep.ServerP99NS))
	}
	fmt.Printf("  verdicts: ")
	var keys []string
	for v := range rep.Verdicts {
		keys = append(keys, v)
	}
	sort.Strings(keys)
	for _, v := range keys {
		fmt.Printf("  %s %d", v, rep.Verdicts[v])
	}
	fmt.Println()
	fmt.Printf("  coalesced: %d/%d responses (%.1f%% hit rate)\n",
		rep.Coalesced, rep.Requests, 100*rep.CoalesceHit)
	if rep.Searches > 0 || rep.FrameErrors > 0 {
		fmt.Printf("  explore:   %d searches audited clean, %d frame violations\n",
			rep.Searches, rep.FrameErrors)
	}
	if after != nil {
		fmt.Printf("  server:    %d leaders, %d followers · cache %d compiles / %d hits · queue max depth %d, max active %d · %d contained panics\n",
			after.Coalesce.Leaders-before.Coalesce.Leaders,
			after.Coalesce.Followers-before.Coalesce.Followers,
			after.Cache.Misses-before.Cache.Misses,
			after.Cache.Hits-before.Cache.Hits,
			after.Queue.MaxDepth, after.Queue.MaxActive,
			after.Panics-before.Panics)
	}
	check := func(name string, ok bool) {
		state := "ok"
		if !ok {
			state = "FAILED"
		}
		fmt.Printf("  check:     %-28s %s\n", name, state)
	}
	check("daemon alive after run", rep.ServerOK)
	if rep.Searches > 0 || rep.FrameErrors > 0 {
		check("explore frames + counters", rep.TallyMatch)
	} else {
		check("verdict counters match tally", rep.TallyMatch)
	}
	check("admission queue drained", rep.QueueEmpty)
}

// spawnServer starts an in-process service on a loopback port — the same
// server the daemon mounts, minus the process boundary — and returns its
// address and a stop function.
func spawnServer(injectSpec string, injectSeed uint64) (string, func(), error) {
	var injector *fault.Injector
	if injectSpec != "" {
		rules, err := fault.ParseSpec(injectSpec)
		if err != nil {
			return "", nil, fmt.Errorf("-inject: %v", err)
		}
		injector = fault.NewInjector(injectSeed, rules...)
	}
	srv, err := server.New(server.Config{Injector: injector})
	if err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	return ln.Addr().String(), func() { httpSrv.Close() }, nil
}
