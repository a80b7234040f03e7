// Command undefd is the undefinedness-analysis daemon: the checker behind
// cmd/kcc served as a long-lived HTTP service speaking undefc.api/v1.
//
//	$ undefd -addr 127.0.0.1:8790
//	undefd: listening on 127.0.0.1:8790
//
//	$ curl -s localhost:8790/v1/analyze -d '{"source":"int main(void){int x;return x;}"}'
//	{"schema": "undefc.api/v1", "file": "request.c", "result": {...verdict...}}
//
// Flags:
//
//	-addr            listen address (default 127.0.0.1:8790; :0 picks a port)
//	-model           default implementation-defined model (LP64, ILP32, INT8)
//	-concurrency N   analyses executing at once (0 = all CPUs)
//	-queue N         admission queue depth beyond that (429 when full)
//	-timeout d       default per-request watchdog
//	-max-timeout d   ceiling a request may ask for
//	-max-steps N     default execution step budget (0 = pipeline default)
//	-explore-max-runs N  ceiling on evaluation orders a /v1/explore
//	                 search may execute (0 = 5000)
//	-drain d         grace period for in-flight requests on SIGTERM/SIGINT
//	-inject spec     deterministic fault injection (see internal/fault),
//	                 e.g. 'server.handle=panic%0.01'
//	-inject-seed n   seed for probabilistic injection rules
//	-trace-sample N  trace every Nth analyze request end to end; traced
//	                 responses carry a trace_id for GET /v1/trace/{id}
//	-flight N        flight-recorder ring size per analysis (-1 auto:
//	                 armed when -inject is; 0 off)
//
// Observability routes (every response also carries X-Undefc-Trace-Id):
//
//	GET /v1/trace/{id}     one trace as Chrome trace-event JSON, served
//	                       from the span ring: any sampled or forwarded
//	                       trace still retained (last 4,096 spans / 4 MiB)
//	GET /v1/spans/{trace}  the same ring's spans for one trace, wire form
//	                       (always on, no sampling needed)
//	GET /v1/coverage       the UB check-site coverage ledger — per-behavior
//	                       evaluated/fired counters and dead coverage; the
//	                       router's route merges every shard's ledger, and
//	                       its GET /v1/trace/{id} stitches router + shard
//	                       spans into one cross-node Chrome trace
//	-debug-addr      second listener with GET /debug/pprof/... and
//	                 POST /debug/metrics/reset; keep it loopback-only
//	-artifact-dir    content-addressed artifact store directory: compiled
//	                 programs persist across restarts and are served to
//	                 peers on GET /v1/artifact/{key}
//	-artifact-max-bytes  artifact store size cap (default 256 MiB)
//	-peers a,b,c     sibling shard addresses to fetch missing artifacts
//	                 from before recompiling (shard mode only)
//
// Cluster flags:
//
//	-router          run as the cluster front router instead of a shard:
//	                 consistent-hash requests over -shards, probe their
//	                 /readyz, fail over with backoff when one dies
//	-shards a,b,c    shard addresses (host:port) forming the ring
//	-shard-id s      this shard's name, stamped on every response as
//	                 X-Undefc-Shard (shard mode only)
//	-probe-interval  router health-probe period (default 250ms)
//
// On SIGTERM or SIGINT the daemon drains: /readyz flips to 503 so load
// balancers (and the cluster router) stop routing here, the listener
// closes, in-flight requests get -drain to finish, and the process exits
// 0. /healthz stays 200 the whole time — it answers "is the process
// alive", not "should traffic come here".
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/server"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil))
}

// run is main with its edges injectable for the smoke test: ready (when
// non-nil) receives the bound listen address once the daemon accepts
// connections.
func run(args []string, stdout, stderr io.Writer, ready chan<- string) int {
	fs := flag.NewFlagSet("undefd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8790", "listen address (:0 picks a free port)")
	model := fs.String("model", "LP64", "default implementation-defined model: LP64, ILP32, or INT8")
	concurrency := fs.Int("concurrency", 0, "analyses executing at once (0 = all CPUs)")
	queueDepth := fs.Int("queue", 64, "admission queue depth; arrivals beyond it get 429")
	timeout := fs.Duration("timeout", 5*time.Second, "default per-request watchdog")
	maxTimeout := fs.Duration("max-timeout", 30*time.Second, "largest watchdog a request may ask for")
	maxSteps := fs.Int64("max-steps", 0, "default execution step budget (0 = pipeline default)")
	exploreRuns := fs.Int("explore-max-runs", 0, "ceiling on evaluation orders per /v1/explore search (0 = 5000)")
	drain := fs.Duration("drain", 10*time.Second, "grace period for in-flight requests on shutdown")
	injectSpec := fs.String("inject", "", "fault-injection rules: site=kind[:arg][*count][@after][~match][%prob],...")
	injectSeed := fs.Uint64("inject-seed", 1, "seed for probabilistic injection rules")
	traceSample := fs.Int("trace-sample", 0, "trace every Nth analyze request (0 = off, 1 = all)")
	flight := fs.Int("flight", -1, "flight-recorder events per analysis (-1 = auto, 0 = off)")
	debugAddr := fs.String("debug-addr", "", "debug listener (pprof + metrics reset); empty = disabled")
	artifactDir := fs.String("artifact-dir", "", "compiled-program artifact store directory (empty = tier off)")
	artifactMax := fs.Int64("artifact-max-bytes", 0, "artifact store size cap in bytes (0 = 256 MiB default)")
	peers := fs.String("peers", "", "comma-separated sibling shard addresses for artifact peer fetch")
	router := fs.Bool("router", false, "run as the cluster front router over -shards")
	shards := fs.String("shards", "", "comma-separated shard addresses for -router mode")
	shardID := fs.String("shard-id", "", "this shard's name, stamped as X-Undefc-Shard on responses")
	probeInterval := fs.Duration("probe-interval", 250*time.Millisecond, "router /readyz probe period")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var injector *fault.Injector
	if *injectSpec != "" {
		rules, err := fault.ParseSpec(*injectSpec)
		if err != nil {
			fmt.Fprintf(stderr, "undefd: -inject: %v\n", err)
			return 2
		}
		injector = fault.NewInjector(*injectSeed, rules...)
		fmt.Fprintf(stdout, "undefd: fault injection armed: %s\n", *injectSpec)
	}

	if *router {
		return runRouter(routerOpts{
			addr:          *addr,
			shards:        *shards,
			model:         *model,
			probeInterval: *probeInterval,
			drain:         *drain,
			traceSample:   *traceSample,
			injector:      injector,
			seed:          int64(*injectSeed),
		}, stdout, stderr, ready)
	}
	if *shards != "" {
		fmt.Fprintln(stderr, "undefd: -shards requires -router")
		return 2
	}
	if *peers != "" && *artifactDir == "" {
		fmt.Fprintln(stderr, "undefd: -peers requires -artifact-dir")
		return 2
	}

	// Flag semantics (-1 auto / 0 off) invert the Config's (0 auto /
	// negative off): a CLI flag needs an explicit "off" a zero value can
	// express, a config struct needs a useful zero value.
	cfgFlight := *flight
	switch {
	case cfgFlight < 0:
		cfgFlight = 0 // auto
	case cfgFlight == 0:
		cfgFlight = -1 // explicitly off
	}
	srv, err := server.New(server.Config{
		Model:            *model,
		Concurrency:      *concurrency,
		QueueDepth:       *queueDepth,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		MaxSteps:         *maxSteps,
		MaxExploreRuns:   *exploreRuns,
		Injector:         injector,
		TraceSample:      *traceSample,
		Flight:           cfgFlight,
		ShardID:          *shardID,
		ArtifactDir:      *artifactDir,
		ArtifactMaxBytes: *artifactMax,
		ArtifactPeers:    splitAddrs(*peers),
	})
	if err != nil {
		fmt.Fprintf(stderr, "undefd: %v\n", err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "undefd: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "undefd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	// Warm the compile cache off the serving path: /readyz answers "cold"
	// until the first compile lands, so a cluster router holds traffic
	// back from a shard that would pay full frontend latency on its first
	// real request.
	go func() {
		wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer wcancel()
		srv.Warmup(wctx)
	}()

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// The debug surface (pprof + metrics reset) gets its own listener and
	// its own http.Server: it must never share a port with the serving
	// API, and it dies with the process rather than draining — nobody
	// waits for a profile to finish during shutdown.
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(stderr, "undefd: debug listener: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "undefd: debug surface on http://%s/debug/pprof/\n", dln.Addr())
		debugSrv = &http.Server{Handler: srv.DebugHandler()}
		go debugSrv.Serve(dln)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)

	select {
	case got := <-sig:
		fmt.Fprintf(stdout, "undefd: %v: draining (up to %v)\n", got, *drain)
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "undefd: drain: %v\n", err)
			return 1
		}
		if debugSrv != nil {
			debugSrv.Close()
		}
		st := srv.CacheStats()
		fmt.Fprintf(stdout, "undefd: drained clean (%d compiles, %d artifact hits, %d cache hits served)\n",
			st.Compiles, st.ArtifactHits, st.Hits)
		return 0
	case err := <-errc:
		fmt.Fprintf(stderr, "undefd: serve: %v\n", err)
		return 1
	}
}

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// routerOpts carries the subset of flags the router mode uses.
type routerOpts struct {
	addr          string
	shards        string
	model         string
	probeInterval time.Duration
	drain         time.Duration
	traceSample   int
	injector      *fault.Injector
	seed          int64
}

// runRouter is the -router main: mount a cluster.Router over the shard
// list and serve until a drain signal.
func runRouter(opts routerOpts, stdout, stderr io.Writer, ready chan<- string) int {
	var addrs []string
	for _, a := range strings.Split(opts.shards, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		fmt.Fprintln(stderr, "undefd: -router needs -shards host:port[,host:port...]")
		return 2
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Shards:        addrs,
		ProbeInterval: opts.probeInterval,
		Model:         opts.model,
		TraceSample:   opts.traceSample,
		Injector:      opts.injector,
		Seed:          opts.seed,
	})
	if err != nil {
		fmt.Fprintf(stderr, "undefd: router: %v\n", err)
		return 2
	}
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		fmt.Fprintf(stderr, "undefd: %v\n", err)
		return 1
	}
	rt.Start()
	defer rt.Stop()
	fmt.Fprintf(stdout, "undefd: router listening on %s (%d shards)\n", ln.Addr(), len(addrs))
	if ready != nil {
		ready <- ln.Addr().String()
	}

	httpSrv := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)

	select {
	case got := <-sig:
		fmt.Fprintf(stdout, "undefd: router %v: draining (up to %v)\n", got, opts.drain)
		rt.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), opts.drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintf(stderr, "undefd: router drain: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "undefd: router drained clean")
		return 0
	case err := <-errc:
		fmt.Fprintf(stderr, "undefd: router serve: %v\n", err)
		return 1
	}
}
