// Command ubsuite regenerates the paper's evaluation tables:
//
//	ubsuite -suite juliet   # Figure 2: the Juliet-style class table
//	ubsuite -suite own      # Figure 3: static/dynamic averages
//	ubsuite -suite torture  # positive-semantics regression (pass rate)
//	ubsuite -catalog        # §5.2.1 classification counts
//
// Suite runs execute the case×tool matrix on a worker pool with a shared
// compile cache; -j sets the worker count (default: all CPUs).
//
// Observability:
//
//	-metrics     collect execution metrics and print a per-tool summary
//	-json        emit the canonical undefc.report/v1 report (implies -metrics)
//	-trace-out f write the run's span forest (cell → compile → interp per
//	             matrix cell) as Chrome trace-event JSON to f
//	-flight N    per-analysis flight-recorder ring (-1 auto: armed when
//	             -inject is; 0 off); quarantined cells carry their last N
//	             events in the failure manifest
//	-coverage    run every suite (juliet, own, torture), then print the UB
//	             check-site coverage ledger: per-behavior evaluated/fired
//	             counters and the registered behaviors that never fired
//
// Fault containment:
//
//	-case-timeout d  per-cell watchdog (e.g. 5s); expiry = "timeout" verdict
//	-inject spec     deterministic fault injection, e.g.
//	                 'interp.step=panic*1~CWE457' (see internal/fault)
//	-inject-seed n   seed for probabilistic injection rules
//	-strict          exit non-zero when the run has failures (contained
//	                 panics, timeouts, cancellations); the default is to
//	                 complete with partial results and report them
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/suite"
	"repro/internal/tools"

	undefc "repro"
)

func main() {
	suiteFlag := flag.String("suite", "juliet", "suite to run: juliet, own, or torture")
	catalog := flag.Bool("catalog", false, "print the §5.2.1 classification counts")
	timing := flag.Bool("time", true, "include per-tool timing")
	jobs := flag.Int("j", 0, "parallel workers for the case×tool matrix (0 = GOMAXPROCS)")
	metricsFlag := flag.Bool("metrics", false, "collect execution metrics and print a per-tool summary")
	jsonFlag := flag.Bool("json", false, "emit the canonical undefc.report/v1 JSON report (implies -metrics)")
	caseTimeout := flag.Duration("case-timeout", 0, "per-case watchdog; an expired cell reports a timeout verdict")
	injectSpec := flag.String("inject", "", "fault-injection rules: site=kind[:arg][*count][@after][~match][%prob],...")
	injectSeed := flag.Uint64("inject-seed", 1, "seed for probabilistic injection rules")
	strict := flag.Bool("strict", false, "exit non-zero when the run recorded failures")
	traceOut := flag.String("trace-out", "", "write the run's span forest as Chrome trace-event JSON to this file")
	flight := flag.Int("flight", -1, "flight-recorder events per analysis (-1 = auto, 0 = off)")
	coverageFlag := flag.Bool("coverage", false, "run every suite (juliet, own, torture) and print the UB check-site coverage ledger")
	flag.Parse()

	if *catalog {
		fmt.Println(runner.CatalogSummary())
		return
	}

	var injector *fault.Injector
	if *injectSpec != "" {
		rules, err := fault.ParseSpec(*injectSpec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ubsuite: -inject: %v\n", err)
			os.Exit(2)
		}
		injector = fault.NewInjector(*injectSeed, rules...)
	}

	// -flight auto (-1) arms the recorder only when faults can actually
	// fire; a fault-free run has no post-mortems to attach trails to.
	cfgFlight := *flight
	if cfgFlight < 0 {
		cfgFlight = 0
		if injector != nil {
			cfgFlight = obs.DefaultFlightEvents
		}
	}

	collect := *jsonFlag || *metricsFlag
	cfg := tools.Config{Metrics: collect, Injector: injector, Flight: cfgFlight}
	opts := runner.Options{Parallelism: *jobs, CaseTimeout: *caseTimeout, Injector: injector}

	if *coverageFlag {
		os.Exit(runCoverage(cfg, opts))
	}

	// -trace-out installs a span collector on the run context; every matrix
	// cell then records its cell → compile → interp spans, and finishTrace
	// writes the forest as Chrome trace-event JSON. Called on every exit
	// path of the matrix suites (idempotent; a no-op when tracing is off).
	finishTrace := func() {}
	if *traceOut != "" {
		buf := &obs.SpanBuffer{}
		ctx, _ := obs.WithTrace(context.Background(), buf)
		ctx, root := obs.StartSpan(ctx, "suite")
		root.SetAttr("suite", *suiteFlag)
		opts.Context = ctx
		done := false
		finishTrace = func() {
			if done {
				return
			}
			done = true
			root.End()
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ubsuite: -trace-out: %v\n", err)
				return
			}
			spans := buf.Spans()
			if err := obs.WriteChromeTrace(f, spans); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "ubsuite: -trace-out: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "ubsuite: wrote %d spans to %s\n", len(spans), *traceOut)
		}
	}
	switch *suiteFlag {
	case "juliet":
		s := suite.Juliet()
		ts := tools.All(cfg)
		m, err := runner.RunMatrix(s, ts, opts)
		if err != nil {
			finishTrace()
			fmt.Fprintf(os.Stderr, "ubsuite: %v\n", err)
			os.Exit(1)
		}
		finishTrace()
		if *jsonFlag {
			if err := runner.WriteJSON(os.Stdout, runner.SuiteReportFrom(s, ts, m)); err != nil {
				fmt.Fprintf(os.Stderr, "ubsuite: %v\n", err)
				os.Exit(1)
			}
			reportFailures(m, *strict)
			return
		}
		fmt.Printf("generated %d test cases (%d undefined + %d defined controls)\n\n",
			len(s.Cases), s.BadCount(), len(s.Cases)-s.BadCount())
		fig := runner.Figure2From(s, ts, m)
		out := fig.Render()
		if !*timing {
			out = stripTiming(out)
		}
		fmt.Print(out)
		if *metricsFlag {
			fmt.Printf("\n%s", fig.RenderMetrics())
		}
		reportFailures(m, *strict)
	case "own":
		s := suite.Own()
		ts := tools.All(cfg)
		m, err := runner.RunMatrix(s, ts, opts)
		if err != nil {
			finishTrace()
			fmt.Fprintf(os.Stderr, "ubsuite: %v\n", err)
			os.Exit(1)
		}
		finishTrace()
		if *jsonFlag {
			if err := runner.WriteJSON(os.Stdout, runner.SuiteReportFrom(s, ts, m)); err != nil {
				fmt.Fprintf(os.Stderr, "ubsuite: %v\n", err)
				os.Exit(1)
			}
			reportFailures(m, *strict)
			return
		}
		fmt.Printf("generated %d test cases covering %d behaviors (%d undefined + %d defined controls)\n\n",
			len(s.Cases), suite.Behaviors(s), s.BadCount(), len(s.Cases)-s.BadCount())
		fig := runner.Figure3From(s, ts, m)
		fmt.Print(fig.Render())
		if *metricsFlag {
			// Figure 3 has no per-tool metrics view; reuse the Figure-2
			// aggregation over the same matrix for the footer.
			fmt.Printf("\n%s", runner.Figure2From(s, ts, m).RenderMetrics())
		}
		reportFailures(m, *strict)
	case "torture":
		pass, fail := 0, 0
		for _, tc := range suite.Torture() {
			res := undefc.RunSource(tc.Source, tc.Name+".c", undefc.Options{})
			if res.Err == nil && res.UB == nil &&
				res.ExitCode == tc.ExitCode && res.Output == tc.Output {
				pass++
			} else {
				fail++
				fmt.Printf("FAIL %s: ub=%v err=%v exit=%d\n", tc.Name, res.UB, res.Err, res.ExitCode)
			}
		}
		total := pass + fail
		fmt.Printf("torture-lite: %d/%d defined programs pass (%.1f%%)\n",
			pass, total, 100*float64(pass)/float64(total))
		if fail > 0 {
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "ubsuite: unknown suite %q\n", *suiteFlag)
		os.Exit(2)
	}
}

// runCoverage runs the full case corpus — the juliet and own matrices
// under every tool, then the torture-lite positives — and prints the UB
// check-site coverage ledger the runs accumulated. Counters are
// order-independent atomic sums and the render is code-sorted, so the
// report is byte-identical across -j values.
func runCoverage(cfg tools.Config, opts runner.Options) int {
	obs.ResetCoverage()
	cases := 0
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		if _, err := runner.RunMatrix(s, tools.All(cfg), opts); err != nil {
			fmt.Fprintf(os.Stderr, "ubsuite: -coverage: %v\n", err)
			return 1
		}
		cases += len(s.Cases)
	}
	for _, tc := range suite.Torture() {
		undefc.RunSource(tc.Source, tc.Name+".c", undefc.Options{})
		cases++
	}
	fmt.Printf("coverage over %d cases (juliet + own matrices, torture-lite)\n\n", cases)
	fmt.Print(runner.CoverageReport(obs.CoverageSnapshot()))
	return 0
}

// reportFailures prints the run's crash manifest to stderr. The default
// contract is graceful degradation — partial results with failures
// reported, exit 0 — so CI pipelines only fail on faults when they opt in
// with -strict.
func reportFailures(m *runner.MatrixResult, strict bool) {
	if len(m.Failures) == 0 && m.Skipped == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "ubsuite: %d failed cell(s), %d skipped, %d retried\n",
		len(m.Failures), m.Skipped, m.Retried)
	for _, f := range m.Failures {
		fmt.Fprintf(os.Stderr, "  %s × %s: %s (%s)\n", f.Case, f.Tool, f.Verdict, f.Detail)
	}
	if strict {
		os.Exit(1)
	}
}

func stripTiming(s string) string {
	var out []byte
	for _, line := range splitLines(s) {
		if len(line) >= 9 && line[:9] == "Mean time" {
			continue
		}
		if len(line) >= 8 && line[:8] == "Frontend" {
			continue
		}
		out = append(out, line...)
		out = append(out, '\n')
	}
	return string(out)
}

func splitLines(s string) []string {
	var lines []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			lines = append(lines, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		lines = append(lines, s[start:])
	}
	return lines
}
