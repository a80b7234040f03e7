// Command perfbench is the repository's benchmark. It runs one seeded
// workload through the public entry points of the checker and prints, as
// the last line of its standard output, one JSON object with the run's
// known-answer verdict, its op counts and its metrics:
//
//	perfbench --workload figures|explore|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced timed
// phase. With --trace 1 it runs the untraced phase, then the same phase
// with span collectors installed, then calls each layer's public
// functions on the corpus, and prints the per-layer metrics; it writes
// one Chrome trace of the run under .bench_build/.
//
//	perfbench --workload W --steady K [--seed N --seconds S]
//
// runs the workload K times with seeds N..N+K-1 in fresh processes and
// prints each end-to-end metric's median and quartile spread beside the
// bound BENCHMARK.json gives it.
//
// Run it from the repository root through perfbench/run.py, which builds
// it first; see BENCHMARK.json for the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/fault"
)

// config is one run's definition. The sizes below the flags exist for
// the benchmark's own test.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int // Parallelism of runner and search: nproc
	reps     int // set-up repetitions; setup_s is taken over them
	// steps times the set-up's steps, each under a fixed name; setup_s
	// is their itemTimes total.
	steps    *itemTimes
	outDir   string // scratch space and trace output, inside the checkout
	tiny     bool
	injector *fault.Injector
}

// tracedPhase caps the traced phase of a traced run: every span is kept
// in memory, and a figures pass records ten thousand.
const tracedPhase = 5 * time.Second

func (c *config) workDir() string { return filepath.Join(c.outDir, "run") }

// setupReps is how often a run repeats its set-up. One set-up takes
// 0.1-1 s on a 2-vCPU VM, too short to time once, and one step of it
// (a compile of about a millisecond) runs at 0.3 or at 1 ms depending
// on whether a GC cycle is under way: nine samples keep each step's
// median off that edge.
const setupReps = 9

// serveSetupReps is setupReps for serve, whose set-up (0.9 s) is mostly
// a boot that waits on the router's readiness probe and varies little.
const serveSetupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// workload is one of the three op mixes.
type workload interface {
	// setup builds the workload's state afresh, replacing any earlier one.
	setup(ctx context.Context) error
	// run executes the timed phase, recording each op into p; tr is nil
	// when the phase is untraced.
	run(ctx context.Context, p *phase, tr *tracer, dur time.Duration)
	// layers derives the workload's own per-layer metrics.
	layers(m metricSet, untraced, traced *phase, tr *tracer)
	close()
}

func newWorkload(cfg *config) (workload, error) {
	switch cfg.workload {
	case "figures":
		return newFigures(cfg), nil
	case "explore":
		return newExplore(cfg), nil
	case "serve":
		return newServe(cfg), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want figures, explore or serve)", cfg.workload)
}

// perLayerNames lists every per-layer metric. A traced run prints all of
// them; a layer its workload does not reach reads 0.
var perLayerNames = map[string]string{
	"cpp.us_per_unit":     "us",
	"cpp.allocs_per_unit": "count",
	"cpp.out_kb_per_unit": "kB",

	"lexer.us_per_unit":     "us",
	"lexer.tokens_per_unit": "count",

	"parser.us_per_unit":     "us",
	"parser.allocs_per_unit": "count",

	"sema.us_per_unit":     "us",
	"sema.allocs_per_unit": "count",

	"driver.compiles_per_op":   "count",
	"driver.hit_share":         "ratio",
	"driver.waits_per_op":      "count",
	"driver.compile_ms_per_op": "ms",

	"artifact.encode_us":          "us",
	"artifact.decode_us":          "us",
	"artifact.kb_per_unit":        "kB",
	"artifact.stores_per_op":      "count",
	"artifact.peer_misses_per_op": "count",

	"interp.us_per_run":      "us",
	"interp.steps_per_s":     "1/s",
	"interp.allocs_per_step": "count",
	"interp.vm.us_per_run":   "us",

	"tools.kcc.us_per_cell":            "us",
	"tools.valgrind.us_per_cell":       "us",
	"tools.checkpointer.us_per_cell":   "us",
	"tools.value-analysis.us_per_cell": "us",

	"absint.us_per_unit": "us",

	"runner.busy_share":  "ratio",
	"runner.cell_p50_us": "us",

	"search.runs_per_op":      "count",
	"search.us_per_run":       "us",
	"search.pruned_per_run":   "count",
	"search.capped_share":     "ratio",
	"search.outcomes_per_run": "count",

	"server.handle_p50_ms":   "ms",
	"server.queue_p50_ms":    "ms",
	"server.compile_p50_ms":  "ms",
	"server.run_p50_ms":      "ms",
	"server.coalesced_share": "ratio",
	"server.rejected":        "count",

	"cluster.router_self_p50_ms":   "ms",
	"cluster.attempts_per_request": "count",
	"cluster.coalesced_share":      "ratio",

	"go.gc_cpu_share":     "ratio",
	"go.allocs_per_op":    "count",
	"go.gc_cycles_per_op": "count",
	"go.cold_setup_s":     "s",

	"obs.trace_overhead": "ratio",
}

// failures counts every known-answer check that failed and every
// invariant that could not be read; any makes the run incorrect.
var failures atomic.Int64

func logFailure(format string, args ...any) {
	if failures.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
	}
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

func realMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "figures, explore or serve")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "length of a timed phase")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	steady := fs.Int("steady", 0, "run the workload this many times and report the spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *steady > 0 {
		return steadyReport(stdout, *name, *seed, *seconds, *steady)
	}
	reps := setupReps
	if *name == "serve" {
		reps = serveSetupReps
	}
	cfg := &config{
		workload: *name,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		workers:  runtime.NumCPU(),
		reps:     reps,
		outDir:   ".bench_build",
	}
	res, err := run(cfg, stdout)
	if err == nil {
		err = emit(stdout, res)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// emit prints the result as the last line of standard output.
func emit(stdout io.Writer, res *result) error {
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// run executes one benchmark run and returns its result; it prints the
// machine facts and op counts on the way.
func run(cfg *config, stdout io.Writer) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workDir(), 0o755); err != nil {
		return nil, err
	}
	defer w.close()
	failures.Store(0)
	ctx := context.Background()
	steal0, total0, statOK := cpuTicks()
	facts := newFacts(cfg.seed)

	var setups []float64
	cfg.steps = newItemTimes()
	for i := 0; i < cfg.reps; i++ {
		t0 := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	untraced := newPhase()
	measure(untraced, func() { w.run(ctx, untraced, nil, dur) })
	facts.Ops = []int64{untraced.ops}

	res := &result{Metrics: metricSet{}, Attempted: untraced.ops, Failed: untraced.failed}
	m := res.Metrics
	if !cfg.trace {
		endToEnd(m, untraced, cfg.steps.total())
	} else {
		tr := &tracer{}
		traced := newPhase()
		measure(traced, func() { w.run(ctx, traced, tr, min(dur, tracedPhase)) })
		facts.Ops = append(facts.Ops, traced.ops)
		res.Attempted += traced.ops
		res.Failed += traced.failed
		w.layers(m, untraced, traced, tr)
		probeLayers(ctx, m, tr, cfg)
		m.set("go.gc_cpu_share", ratio(untraced.rt.gcCPU, untraced.rt.totalCPU), "ratio")
		m.set("go.allocs_per_op", ratio(untraced.rt.allocs, float64(untraced.ops)), "count")
		m.set("go.gc_cycles_per_op", ratio(untraced.rt.gcCycles, float64(untraced.ops)), "count")
		m.set("go.cold_setup_s", setups[0], "s")
		m.set("obs.trace_overhead", ratio(untraced.throughput(), traced.throughput())-1, "ratio")
		for name, unit := range perLayerNames {
			if _, ok := m[name]; !ok {
				m.set(name, 0, unit)
			}
		}
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(stdout, "perfbench: Chrome trace written to %s\n", path)
	}
	if steal1, total1, ok := cpuTicks(); ok && statOK {
		facts.StealShare = ratio(steal1-steal0, total1-total0)
	}
	res.Correct = res.Failed == 0 && failures.Load() == 0
	fj, _ := json.Marshal(facts) // plain numbers and strings: cannot fail
	fmt.Fprintf(stdout, "perfbench: workload %s facts %s\n", cfg.workload, fj)
	fmt.Fprintf(stdout, "perfbench: workload %s ops attempted %d failed %d\n", cfg.workload, res.Attempted, res.Failed)
	return res, nil
}

// endToEnd fills the metrics a user of the checker sees.
func endToEnd(m metricSet, p *phase, setup float64) {
	m.set("setup_s", setup, "s")
	m.set("throughput", p.throughput(), "1/s")
	p50, p90 := p.latency(0.5), p.latency(0.9)
	if len(p.cellP50) > 0 {
		p50, p90 = median(p.cellP50), median(p.cellP90)
	}
	m.set("p50_ms", p50, "ms")
	m.set("p90_ms", p90, "ms")
	m.set("cpu_ms_per_op", ratio(float64(p.cpu)/float64(time.Millisecond), float64(p.ops)), "ms")
	m.set("peak_live_heap_mb", float64(p.peakLive)/(1<<20), "MB")
}
