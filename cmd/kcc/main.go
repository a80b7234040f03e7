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
//	-model   LP64 (default), ILP32, or INT8 (§2.5.1's 8-byte-int model);
//	         case-insensitive
//	-search  explore all evaluation orders (§2.5.2) instead of one run
//	-print-config  print the configuration cell tree (Figure 1) and exit
//	-catalog print the undefined behavior catalog and exit
//	-batch   analyze every file argument and print one verdict per file
//	-j N     worker count for -batch (0 = all CPUs)
//	-trace   stream execution events (checks, memory ops, ...) to stderr
//	-trace-steps   include one trace line per interpreter step (noisy)
//	-json    emit the canonical undefc.report/v1 report instead of text
//	-timeout d     wall-clock watchdog per analysis, compile and run
//	               together (e.g. 5s); expiry is reported as a timeout
//	               verdict, not a hang
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
	"io"
	"os"

	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/spec"
	"repro/internal/suite"
	"repro/internal/tools"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is kcc: it parses args, writes the program's output and the reports
// to stdout and diagnostics to stderr, and returns the exit code. Once the
// arguments are checked, every exit goes through one deferred finish that
// writes the -trace-out file and prints the -coverage ledger.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modelFlag := fs.String("model", "LP64", "implementation-defined model: LP64, ILP32, or INT8")
	searchFlag := fs.Bool("search", false, "search all evaluation orders (§2.5.2)")
	printConfig := fs.Bool("print-config", false, "print the configuration cell tree (Figure 1)")
	catalog := fs.Bool("catalog", false, "print the undefined behavior catalog")
	maxSteps := fs.Int64("max-steps", 0, "execution step budget (0 = default)")
	axioms := fs.Bool("axioms", false, "also enforce the §4.5.2 declarative axioms")
	batch := fs.Bool("batch", false, "analyze every file argument, one verdict per file")
	jobs := fs.Int("j", 0, "parallel workers for -batch (0 = all CPUs)")
	traceFlag := fs.Bool("trace", false, "stream execution events to stderr")
	traceSteps := fs.Bool("trace-steps", false, "with -trace, include per-step events (noisy)")
	jsonFlag := fs.Bool("json", false, "emit the canonical undefc.report/v1 JSON report")
	timeout := fs.Duration("timeout", 0, "per-analysis wall-clock watchdog, compile and run together (0 = none)")
	traceOut := fs.String("trace-out", "", "write the span tree as Chrome trace-event JSON to this file")
	coverageFlag := fs.Bool("coverage", false, "after the run, print the UB check-site coverage ledger")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}

	if *catalog {
		fmt.Fprintln(stdout, runner.CatalogSummary())
		for _, b := range runner.SortedBehaviors() {
			fmt.Fprintln(stdout, " ", b)
		}
		return 0
	}

	model, err := ctypes.ModelFor(*modelFlag)
	if err != nil {
		fmt.Fprintf(stderr, "kcc: %v\n", err)
		return 2
	}
	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: kcc [flags] file.c [args...]")
		return 2
	}

	// ctx carries the span collector when -trace-out is set. The ledger
	// goes to stderr so it composes with both the program's stdout and the
	// -json report body.
	ctx, _, finishTrace := obs.TraceFile(context.Background(), *traceOut, "kcc", "kcc", stderr)
	defer func() {
		finishTrace()
		if *coverageFlag {
			fmt.Fprint(stderr, runner.CoverageReport(obs.CoverageSnapshot()))
		}
	}()

	budget := interp.Budget{MaxSteps: *maxSteps}
	var tracer obs.Observer
	if *traceFlag || *traceSteps {
		tracer = &obs.Tracer{W: stderr, Steps: *traceSteps}
	}
	if *batch {
		return runBatch(fs.Args(), tools.Config{Budget: budget, Metrics: true, Observer: tracer},
			runner.Options{Parallelism: *jobs, Context: ctx, Model: model, CaseTimeout: *timeout},
			*jsonFlag, stdout, stderr)
	}
	file := fs.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(stderr, "kcc: %v\n", err)
		return 1
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	cache := driver.NewCache()
	copts := driver.Options{Model: model}

	if *jsonFlag {
		// The report path runs the kcc analysis tool (metrics on, program
		// output captured) and emits the canonical single-file report,
		// charging this run's frontend pass to it.
		kcc := tools.KCC(tools.Config{Budget: budget, Metrics: true, Observer: tracer})
		rep := tools.Analyze(ctx, cache, kcc, string(src), file, copts)
		rep.CompileDuration = cache.Stats().CompileTime
		if err := runner.WriteJSON(stdout, runner.FileReportFrom(file, kcc.Name(), rep)); err != nil {
			fmt.Fprintf(stderr, "kcc: %v\n", err)
			return 1
		}
		if rep.Verdict != tools.Accepted {
			return 1
		}
		return 0
	}

	prog, err := cache.CompileCtx(ctx, string(src), file, copts)
	if err == nil {
		err = ctx.Err() // -timeout covers the compile too
	}
	if err != nil {
		fmt.Fprintf(stderr, "kcc: %v\n", err)
		return 1
	}
	if len(prog.StaticUB) > 0 {
		// Translation-time detection: report and stop, as the standard
		// permits ("terminating a translation ... with the issuance of a
		// diagnostic message", §3.4.3).
		fmt.Fprint(stdout, prog.StaticUB[0].Report())
		return 1
	}
	if *printConfig {
		in := interp.New(prog, interp.Options{})
		fmt.Fprintln(stdout, "Subset of the C configuration (Figure 1):")
		fmt.Fprint(stdout, in.ConfigTree().Render())
		return 0
	}
	if *searchFlag {
		return runSearch(ctx, prog, stdout)
	}

	opts := interp.Options{
		Out:      stdout,
		Budget:   budget,
		Context:  ctx,
		Observer: tracer,
		Args:     fs.Args()[1:],
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
	if res.UB != nil {
		fmt.Fprint(stdout, res.UB.Report())
		return 1
	}
	if res.Err != nil {
		fmt.Fprintf(stderr, "kcc: %v\n", res.Err)
		return 1
	}
	return res.ExitCode
}

// runBatch analyzes every readable file as one case of a runner.RunMatrix
// suite run: the runner's pool shares one compile cache (a file named
// twice compiles once), each file compiles under the path it was given,
// and opts.CaseTimeout bounds each file's compile and run. It prints one
// verdict per file in argument order and returns 1 when any file is not
// accepted or cannot be read.
func runBatch(files []string, cfg tools.Config, opts runner.Options, asJSON bool, stdout, stderr io.Writer) int {
	reports := make([]tools.Report, len(files))
	s := &suite.Suite{Name: "batch"}
	var at []int // the reports index of each case
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			reports[i] = tools.Report{Verdict: tools.Inconclusive, Detail: err.Error()}
			continue
		}
		s.Cases = append(s.Cases, suite.Case{Name: f, Source: string(src)})
		at = append(at, i)
	}
	m, err := runner.RunMatrix(s, []tools.Tool{tools.KCC(cfg)}, opts)
	if err != nil {
		fmt.Fprintf(stderr, "kcc: %v\n", err)
		return 1
	}
	// Each report carries its own metrics snapshot; the batch prints their
	// sum, and the per-file entries stay without one.
	metrics := &obs.Snapshot{}
	for ci, i := range at {
		reports[i] = m.Reports[ci][0]
		metrics.Add(reports[i].Metrics)
		reports[i].Metrics = nil
	}
	metrics.CacheHits, metrics.CacheMisses = int64(m.Frontend.CacheHits), int64(m.Frontend.Compiles)

	exit := 0
	for _, rep := range reports {
		if rep.Verdict != tools.Accepted {
			exit = 1
		}
	}
	if asJSON {
		out := struct {
			Schema  string              `json:"schema"`
			Files   []runner.ToolResult `json:"files"`
			Names   []string            `json:"names"`
			Metrics *obs.Snapshot       `json:"metrics"`
		}{Schema: runner.Schema, Names: files, Metrics: metrics}
		for _, rep := range reports {
			out.Files = append(out.Files, runner.ToolResultFrom("kcc", rep))
		}
		if err := runner.WriteJSON(stdout, out); err != nil {
			fmt.Fprintf(stderr, "kcc: %v\n", err)
			return 1
		}
		return exit
	}

	flagged := 0
	for i, rep := range reports {
		switch rep.Verdict {
		case tools.Accepted:
			fmt.Fprintf(stdout, "%s: ok (exit %d)\n", files[i], rep.ExitCode)
		case tools.Flagged:
			flagged++
			fmt.Fprintf(stdout, "%s: undefined — %s\n", files[i], rep.Detail)
		default:
			fmt.Fprintf(stdout, "%s: %s — %s\n", files[i], rep.Verdict, rep.Detail)
		}
	}
	fmt.Fprintf(stdout, "%d files, %d undefined (%d compiles, %d cache hits)\n",
		len(files), flagged, m.Frontend.Compiles, m.Frontend.CacheHits)
	fmt.Fprintf(stdout, "metrics: %s\n", metrics.Summary())
	return exit
}

// runSearch explores the evaluation orders of prog under ctx and prints
// every distinct behavior; it returns 1 when some order is undefined.
func runSearch(ctx context.Context, prog *sema.Program, stdout io.Writer) int {
	res := search.Explore(ctx, prog, search.Options{MaxRuns: 5000, POR: true})
	fmt.Fprintf(stdout, "explored %d executions (exhausted: %v, %d orders pruned)\n",
		res.Runs, res.Exhausted, res.Stats.OrdersPruned)
	for i, o := range res.Outcomes {
		fmt.Fprintf(stdout, "\n--- behavior %d (decision trace %v) ---\n", i+1, o.Trace)
		switch {
		case o.UB != nil:
			fmt.Fprint(stdout, o.UB.Report())
		case o.Err != nil:
			fmt.Fprintf(stdout, "error: %v\n", o.Err)
		default:
			fmt.Fprintf(stdout, "exit %d", o.ExitCode)
			if o.Output != "" {
				fmt.Fprintf(stdout, ", output:\n%s", o.Output)
			}
			fmt.Fprintln(stdout)
		}
	}
	if res.UB() != nil {
		fmt.Fprintln(stdout, "\nverdict: program has undefined behavior on some evaluation order")
		return 1
	}
	fmt.Fprintln(stdout, "\nverdict: no undefined behavior found on explored orders")
	return 0
}
