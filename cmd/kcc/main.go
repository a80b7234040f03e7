// Command kcc mimics the paper's semantics-based C "compiler": it
// compiles a C file against the executable semantics and runs it,
// reporting undefined behavior in the format of §3.2:
//
//	$ kcc helloworld.c
//	Hello world
//
//	$ kcc unseq.c
//	ERROR! KCC encountered an error.
//	===============================================
//	Error: 00016
//	Description: Unsequenced side effect on scalar object ...
//
// Flags:
//
//	-model   LP64 (default), ILP32, or INT8 (§2.5.1's 8-byte-int model)
//	-engine  execution engine: tree (the reference walker, default) or vm
//	         (pre-compiled closure code; identical verdicts, faster)
//	-search  explore all evaluation orders (§2.5.2) instead of one run
//	-print-config  print the configuration cell tree (Figure 1) and exit
//	-catalog print the undefined behavior catalog and exit
//	-batch   analyze every file argument and print one verdict per file
//	-j N     worker count for -batch (0 = all CPUs)
//	-trace   stream execution events (checks, memory ops, ...) to stderr
//	-trace-steps   include one trace line per interpreter step (noisy)
//	-json    emit the canonical undefc.report/v1 report instead of text
//	-timeout d     wall-clock watchdog per analysis (e.g. 5s); expiry is
//	               reported as a timeout verdict, not a hang
//	-trace-out f   write the analysis' span tree (compile → interp) as
//	               Chrome trace-event JSON to f; open it in
//	               chrome://tracing or https://ui.perfetto.dev
//	-coverage      after the run, print the UB check-site coverage ledger
//	               (which registered behaviors this run evaluated/fired)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/spec"
	"repro/internal/tools"
	"repro/internal/ub"
)

func main() {
	modelFlag := flag.String("model", "LP64", "implementation-defined model: LP64, ILP32, or INT8")
	engineFlag := flag.String("engine", "", "execution engine: tree (default) or vm")
	searchFlag := flag.Bool("search", false, "search all evaluation orders (§2.5.2)")
	printConfig := flag.Bool("print-config", false, "print the configuration cell tree (Figure 1)")
	catalog := flag.Bool("catalog", false, "print the undefined behavior catalog")
	maxSteps := flag.Int64("max-steps", 0, "execution step budget (0 = default)")
	axioms := flag.Bool("axioms", false, "also enforce the §4.5.2 declarative axioms")
	batch := flag.Bool("batch", false, "analyze every file argument, one verdict per file")
	jobs := flag.Int("j", 0, "parallel workers for -batch (0 = all CPUs)")
	traceFlag := flag.Bool("trace", false, "stream execution events to stderr")
	traceSteps := flag.Bool("trace-steps", false, "with -trace, include per-step events (noisy)")
	jsonFlag := flag.Bool("json", false, "emit the canonical undefc.report/v1 JSON report")
	timeout := flag.Duration("timeout", 0, "per-analysis wall-clock watchdog (0 = none)")
	traceOut := flag.String("trace-out", "", "write the span tree as Chrome trace-event JSON to this file")
	coverageFlag := flag.Bool("coverage", false, "after the run, print the UB check-site coverage ledger")
	flag.Parse()

	// The ledger goes to stderr so it composes with both the program's
	// stdout and the -json report body.
	printCoverage := func() {
		if *coverageFlag {
			fmt.Fprint(os.Stderr, runner.CoverageReport(obs.CoverageSnapshot()))
		}
	}

	if *catalog {
		fmt.Println(runner.CatalogSummary())
		for _, b := range runner.SortedBehaviors() {
			fmt.Println(" ", b)
		}
		return
	}

	model := ctypes.LP64()
	switch *modelFlag {
	case "LP64":
	case "ILP32":
		model = ctypes.ILP32()
	case "INT8":
		model = ctypes.Int8()
	default:
		fmt.Fprintf(os.Stderr, "kcc: unknown model %q\n", *modelFlag)
		os.Exit(2)
	}
	if !engineKnown(*engineFlag) {
		fmt.Fprintf(os.Stderr, "kcc: unknown engine %q (want one of %v)\n", *engineFlag, interp.Engines())
		os.Exit(2)
	}

	budget := interp.Budget{MaxSteps: *maxSteps}
	var tracer obs.Observer
	if *traceFlag || *traceSteps {
		tracer = &obs.Tracer{W: os.Stderr, Steps: *traceSteps}
	}

	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: kcc [flags] file.c [args...]")
		os.Exit(2)
	}
	if *batch {
		code := runBatch(flag.Args(), model, *engineFlag, budget, *jobs, tracer, *jsonFlag, *timeout)
		printCoverage()
		os.Exit(code)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kcc: %v\n", err)
		os.Exit(1)
	}

	// ctx carries the span collector when -trace-out is set; finishTrace
	// ends the root span and writes the Chrome trace file. It must run
	// before any exit on a traced path (os.Exit skips defers).
	ctx, finishTrace := startTrace(*traceOut)

	if *jsonFlag {
		// The report path runs the kcc analysis tool (metrics on, program
		// output captured) and emits the canonical single-file report.
		kcc := tools.KCC(tools.Config{Model: model, Engine: *engineFlag, Budget: budget, Metrics: true, Observer: tracer, Timeout: *timeout})
		var rep tools.Report
		if *traceOut == "" {
			rep = kcc.Analyze(string(src), file)
		} else {
			// The traced equivalent of Analyze: compile under the "compile"
			// span, analyze under "interp", charge the frontend to the
			// report like compileAndDelegate does.
			cstart := time.Now()
			prog, cerr := driver.NewCache().CompileCtx(ctx, string(src), file, driver.Options{Model: model})
			compile := time.Since(cstart)
			if cerr != nil {
				rep = tools.Report{Verdict: tools.Inconclusive, Detail: "compile: " + cerr.Error(), CompileDuration: compile}
			} else {
				rep = kcc.AnalyzeProgram(ctx, prog, file)
				rep.CompileDuration = compile
			}
		}
		finishTrace()
		printCoverage()
		if err := runner.WriteJSON(os.Stdout, runner.FileReportFrom(file, kcc.Name(), rep)); err != nil {
			fmt.Fprintf(os.Stderr, "kcc: %v\n", err)
			os.Exit(1)
		}
		if rep.Verdict != tools.Accepted {
			os.Exit(1)
		}
		return
	}

	var prog *sema.Program
	if *traceOut == "" {
		prog, err = driver.Compile(string(src), file, driver.Options{Model: model})
	} else {
		prog, err = driver.NewCache().CompileCtx(ctx, string(src), file, driver.Options{Model: model})
	}
	if err != nil {
		finishTrace()
		fmt.Fprintf(os.Stderr, "kcc: %v\n", err)
		os.Exit(1)
	}
	if len(prog.StaticUB) > 0 {
		// Translation-time detection: report and stop, as the standard
		// permits ("terminating a translation ... with the issuance of a
		// diagnostic message", §3.4.3).
		fmt.Print(prog.StaticUB[0].Report())
		os.Exit(1)
	}

	if *printConfig {
		in := interp.New(prog, interp.Options{})
		fmt.Println("Subset of the C configuration (Figure 1):")
		fmt.Print(in.ConfigTree().Render())
		return
	}

	if *searchFlag {
		runSearch(prog, *engineFlag)
		return
	}

	opts := interp.Options{
		Engine:   *engineFlag,
		Out:      os.Stdout,
		Budget:   budget,
		Observer: tracer,
		Args:     flag.Args()[1:],
	}
	if *timeout > 0 {
		tctx, cancel := context.WithTimeout(context.Background(), *timeout)
		defer cancel()
		opts.Context = tctx
	}
	if *axioms {
		opts.Monitors = spec.Set{
			spec.NeverDerefNull(),
			spec.NeverDerefVoid(),
			spec.NoUnseqConflict(),
		}
	}
	_, rsp := obs.StartSpan(ctx, "interp")
	res := interp.Run(prog, opts)
	if rsp.Recording() {
		if res.UB != nil {
			rsp.SetAttr("ub", obs.CheckKey(res.UB.Behavior.Code))
		}
		rsp.End()
	}
	finishTrace()
	printCoverage()
	if res.UB != nil {
		fmt.Print(res.UB.Report())
		os.Exit(1)
	}
	if res.Err != nil {
		fmt.Fprintf(os.Stderr, "kcc: %v\n", res.Err)
		os.Exit(1)
	}
	os.Exit(res.ExitCode)
}

// startTrace arms span collection for -trace-out: the returned context
// carries the collector (plus a root "kcc" span), and the returned
// function — idempotent, safe to call on every exit path — ends the root
// and writes the collected tree as Chrome trace-event JSON.
func startTrace(path string) (context.Context, func()) {
	if path == "" {
		return context.Background(), func() {}
	}
	buf := &obs.SpanBuffer{}
	ctx, _ := obs.WithTrace(context.Background(), buf)
	ctx, root := obs.StartSpan(ctx, "kcc")
	done := false
	return ctx, func() {
		if done {
			return
		}
		done = true
		root.End()
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kcc: -trace-out: %v\n", err)
			return
		}
		defer f.Close()
		if err := obs.WriteChromeTrace(f, buf.Spans()); err != nil {
			fmt.Fprintf(os.Stderr, "kcc: -trace-out: %v\n", err)
			return
		}
		fmt.Fprintf(os.Stderr, "kcc: wrote %d spans to %s\n", len(buf.Spans()), path)
	}
}

// runBatch analyzes every file on a worker pool sharing one compile
// cache (identical translation units are compiled once), printing one
// verdict line per file in argument order. Metrics are collected into
// per-worker shards (no cross-CPU contention) and merged at the end.
// Returns the exit code: 1 when any file is flagged, crashed,
// inconclusive, or unreadable.
// engineKnown reports whether name is a registered execution engine.
func engineKnown(name string) bool {
	if name == "" {
		return true
	}
	for _, e := range interp.Engines() {
		if e == name {
			return true
		}
	}
	return false
}

func runBatch(files []string, model *ctypes.Model, engine string, budget interp.Budget, jobs int, tracer obs.Observer, asJSON bool, timeout time.Duration) int {
	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	sharded := obs.NewSharded()
	cache := driver.NewCache()
	reports := make([]tools.Report, len(files))
	ctx := context.Background()

	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One tool (and one metrics shard) per worker: workers never
			// share a counter cache line.
			kcc := tools.KCC(tools.Config{Model: model, Engine: engine, Budget: budget,
				Observer: obs.Multi(tracer, sharded.Shard()), Timeout: timeout})
			for i := range work {
				src, err := os.ReadFile(files[i])
				if err != nil {
					reports[i] = tools.Report{Verdict: tools.Inconclusive, Detail: err.Error()}
					continue
				}
				prog, err := cache.Compile(string(src), files[i], driver.Options{Model: model})
				if err != nil {
					reports[i] = tools.Report{Verdict: tools.Inconclusive, Detail: err.Error()}
					continue
				}
				reports[i] = kcc.AnalyzeProgram(ctx, prog, files[i])
			}
		}()
	}
	for i := range files {
		work <- i
	}
	close(work)
	wg.Wait()
	metrics, st := sharded.Snapshot(), cache.Stats()
	metrics.CacheHits, metrics.CacheMisses = st.Hits, st.Misses

	if asJSON {
		out := struct {
			Schema  string              `json:"schema"`
			Files   []runner.ToolResult `json:"files"`
			Names   []string            `json:"names"`
			Metrics *obs.Snapshot       `json:"metrics"`
		}{Schema: runner.Schema, Metrics: metrics}
		exit := 0
		for i, rep := range reports {
			out.Names = append(out.Names, files[i])
			out.Files = append(out.Files, runner.ToolResultFrom("kcc", rep))
			if rep.Verdict != tools.Accepted {
				exit = 1
			}
		}
		if err := runner.WriteJSON(os.Stdout, out); err != nil {
			fmt.Fprintf(os.Stderr, "kcc: %v\n", err)
			return 1
		}
		return exit
	}

	exit := 0
	flagged := 0
	for i, rep := range reports {
		switch rep.Verdict {
		case tools.Accepted:
			fmt.Printf("%s: ok (exit %d)\n", files[i], rep.ExitCode)
		case tools.Flagged:
			flagged++
			exit = 1
			fmt.Printf("%s: undefined — %s\n", files[i], rep.Detail)
		default:
			exit = 1
			fmt.Printf("%s: %s — %s\n", files[i], rep.Verdict, rep.Detail)
		}
	}
	fmt.Printf("%d files, %d undefined (%d compiles, %d cache hits)\n",
		len(files), flagged, st.Misses, st.Hits)
	fmt.Printf("metrics: %s\n", metrics.Summary())
	return exit
}

func runSearch(prog *sema.Program, engine string) {
	res := search.Explore(context.Background(), prog, search.Options{MaxRuns: 5000, Engine: engine, POR: true})
	fmt.Printf("explored %d executions (exhausted: %v, %d orders pruned)\n",
		res.Runs, res.Exhausted, res.Stats.OrdersPruned)
	for i, o := range res.Outcomes {
		fmt.Printf("\n--- behavior %d (decision trace %v) ---\n", i+1, o.Trace)
		switch {
		case o.UB != nil:
			fmt.Print(o.UB.Report())
		case o.Err != nil:
			fmt.Printf("error: %v\n", o.Err)
		default:
			fmt.Printf("exit %d", o.ExitCode)
			if o.Output != "" {
				fmt.Printf(", output:\n%s", o.Output)
			}
			fmt.Println()
		}
	}
	if u := res.UB(); u != nil {
		fmt.Println("\nverdict: program has undefined behavior on some evaluation order")
		os.Exit(1)
	}
	fmt.Println("\nverdict: no undefined behavior found on explored orders")
	_ = ub.Catalog // keep the catalog linked for -catalog users
}
