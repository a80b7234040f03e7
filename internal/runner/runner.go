// Package runner executes the benchmark suites against the analysis tools
// and renders the paper's evaluation artifacts: Figure 2 (the Juliet class
// table) and Figure 3 (the static/dynamic averages on the authors' own
// suite).
//
// Execution is organized as a worker pool over the case×tool matrix
// backed by a shared compile cache (driver.Cache), so every translation
// unit runs through the frontend once per suite run no matter how many
// tools analyze it, and the embarrassing parallelism of the matrix is
// exploited up to Options.Parallelism workers. Aggregation is performed
// after execution, in case order, so results are independent of worker
// scheduling: a parallel run produces the same figure as a sequential
// one, byte for byte (modulo wall-clock timings).
package runner

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/tools"
	"repro/internal/ub"
)

// SiteAnalyze is the fault-injection site fired before each matrix cell;
// the unit is "<case>.c".
var SiteAnalyze = fault.RegisterSite("runner.analyze")

// retryBackoff is the pause before retrying a transient cell failure.
const retryBackoff = 10 * time.Millisecond

// Options configure suite execution.
type Options struct {
	// Parallelism is the worker count; <= 0 means runtime.GOMAXPROCS(0).
	Parallelism int
	// Context cancels the run; nil means context.Background(). A canceled
	// run returns the context error and a nil figure.
	Context context.Context
	// Cache is the shared compile cache; nil allocates a fresh one for
	// the run. Passing a cache across runs shares frontend work between
	// suites compiled under the same model and defines.
	Cache *driver.Cache
	// Model is the implementation-defined model for the shared frontend
	// pass (nil = LP64). It must match the model the tools were
	// configured with, since they analyze the shared program as-is.
	Model *ctypes.Model
	// Defines are extra macro definitions for the frontend pass.
	Defines []string
	// CaseTimeout, when positive, is the per-cell watchdog: each case×tool
	// analysis runs under its own context deadline, and an expiry is
	// reported as a Timeout verdict for that cell only — distinct from
	// whole-run cancellation, which yields Cancelled/Skipped cells.
	CaseTimeout time.Duration
	// Injector, when set, fires the runner.analyze site per cell and is
	// threaded into the shared frontend (driver.compile site). Tools carry
	// their own injector via tools.Config.
	Injector *fault.Injector
	// OnCell, when set, is invoked for every completed matrix cell as soon
	// as its report exists — the streaming hook batch servers use to emit
	// per-case results while the run is still going.
	//
	// Contract: invocations are serialized (never concurrent) but arrive in
	// completion order, not case order; cells skipped by cancellation are
	// never delivered. Delivery is decoupled from execution — completed
	// cells are handed to a dedicated delivery goroutine through a buffer
	// sized for the whole matrix, so a slow consumer delays only its own
	// deliveries, never the workers (asserted by TestOnCellSlowConsumer).
	// RunMatrix does not return until every delivery has been made.
	OnCell func(Cell)
}

// Cell is one completed matrix cell, as delivered to Options.OnCell.
type Cell struct {
	Case      string
	Tool      string
	CaseIndex int
	ToolIndex int
	Report    tools.Report
}

func (o Options) workers() int {
	if o.Parallelism <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallelism
}

// FrontendStats accounts for the shared frontend work of one run.
type FrontendStats struct {
	Compiles  int           // actual frontend passes (cache misses)
	CacheHits int           // analyses served by an already-compiled unit
	Errors    int           // translation units that failed to compile
	Time      time.Duration // total wall time inside the frontend
}

// Failure is one entry of a run's crash manifest: a cell whose analysis
// did not produce a real verdict — a contained panic, a watchdog expiry,
// or a cancellation.
type Failure struct {
	Case    string        `json:"case"`
	Tool    string        `json:"tool"`
	Verdict tools.Verdict `json:"verdict"`
	Detail  string        `json:"detail,omitempty"`
	// Stage and Stack are set for contained panics (internal-error cells).
	Stage   string `json:"stage,omitempty"`
	Stack   string `json:"stack,omitempty"`
	Retried bool   `json:"retried,omitempty"`
	// Events is the flight-recorder tail: the last abstract-machine events
	// before the cell died, present when the tools ran with a flight
	// recorder armed (tools.Config.Flight > 0).
	Events []string `json:"events,omitempty"`
}

// MatrixResult is the raw outcome of one suite execution: the report
// matrix indexed [case][tool] plus the frontend accounting of the run. The
// figures (Figure2From, Figure3From) and the export layer (SuiteReportFrom)
// are all derived views of one MatrixResult, so a caller that wants both a
// rendered table and the canonical JSON report runs the matrix once.
//
// Degradation is graceful: a cell that panicked, timed out, or was
// cancelled still occupies its slot (with the corresponding verdict) and
// appears in Failures, so figure aggregation always completes on whatever
// results exist.
type MatrixResult struct {
	Reports  [][]tools.Report
	Frontend FrontendStats
	// Failures is the crash manifest, in case-then-tool order (worker
	// scheduling cannot reorder it).
	Failures []Failure
	// Skipped counts cells never started (run cancelled while queued);
	// Retried counts cells that produced their report on a retry after a
	// transient failure.
	Skipped int
	Retried int
	// CellTime is the end-to-end cell-latency distribution of the run
	// (compile wait + analysis, per cell), recorded into per-worker
	// histogram shards and merged after the pool drains.
	CellTime *obs.HistogramSnapshot
}

// RunMatrix executes every (case, tool) pair of the suite on a worker
// pool. Cancellation through Options.Context stops feeding new pairs AND
// interrupts in-flight interpretations (the tools' AnalyzeProgram honors
// ctx inside the step loop); a canceled run returns the context error
// together with the partial matrix — in-flight cells report Cancelled,
// never-started cells stay Skipped, and the crash manifest is complete.
func RunMatrix(s *suite.Suite, ts []tools.Tool, opts Options) (*MatrixResult, error) {
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	cache := opts.Cache
	if cache == nil {
		cache = driver.NewCache()
	}
	copts := driver.Options{Model: opts.Model, Defines: opts.Defines, Injector: opts.Injector}
	before := cache.Stats()

	// Pre-fill with Skipped so a cell that never runs is explicit in the
	// report rather than masquerading as the zero verdict (Accepted).
	reports := make([][]tools.Report, len(s.Cases))
	for i := range reports {
		reports[i] = make([]tools.Report, len(ts))
		for j := range reports[i] {
			reports[i][j] = tools.Report{Verdict: tools.Skipped, Detail: "run cancelled before this cell started"}
		}
	}

	type item struct{ ci, ti int }
	work := make(chan item)
	var wg sync.WaitGroup

	// OnCell delivery is decoupled from execution: workers hand completed
	// cells to a single delivery goroutine through a buffer that can hold
	// the whole matrix, so the send never blocks and a slow consumer never
	// stalls a worker (see the Options.OnCell contract).
	var deliver chan Cell
	deliverDone := make(chan struct{})
	if opts.OnCell != nil {
		deliver = make(chan Cell, len(s.Cases)*len(ts))
		go func() {
			defer close(deliverDone)
			for cell := range deliver {
				opts.OnCell(cell)
			}
		}()
	}

	cellTime := obs.NewShardedHistogram()
	for w := 0; w < opts.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := cellTime.Shard()
			for it := range work {
				c := &s.Cases[it.ci]
				start := time.Now()
				rep := runCell(ctx, cache, ts[it.ti], c, copts, opts)
				lat.Observe(time.Since(start))
				reports[it.ci][it.ti] = rep
				if deliver != nil {
					deliver <- Cell{Case: c.Name, Tool: ts[it.ti].Name(), CaseIndex: it.ci, ToolIndex: it.ti, Report: rep}
				}
			}
		}()
	}
	var err error
feed:
	for ci := range s.Cases {
		for ti := range ts {
			select {
			case work <- item{ci, ti}:
			case <-ctx.Done():
				err = ctx.Err()
				break feed
			}
		}
	}
	close(work)
	wg.Wait()
	if deliver != nil {
		close(deliver)
		<-deliverDone
	}

	after := cache.Stats()
	fs := FrontendStats{
		Compiles:  int(after.Misses - before.Misses),
		CacheHits: int(after.Hits - before.Hits),
		Errors:    int(after.Errors - before.Errors),
		Time:      after.CompileTime - before.CompileTime,
	}
	m := &MatrixResult{Reports: reports, Frontend: fs}
	if ct := cellTime.Snapshot(); ct.Count > 0 {
		m.CellTime = ct
	}
	// The crash manifest is assembled in case-then-tool order after the
	// pool drains, so worker scheduling cannot reorder it.
	for ci := range s.Cases {
		for ti, t := range ts {
			r := reports[ci][ti]
			if r.Retried {
				m.Retried++
			}
			switch r.Verdict {
			case tools.Skipped:
				m.Skipped++
			case tools.InternalError, tools.Timeout, tools.Cancelled:
				f := Failure{
					Case:    s.Cases[ci].Name,
					Tool:    t.Name(),
					Verdict: r.Verdict,
					Detail:  r.Detail,
					Retried: r.Retried,
				}
				if r.Fault != nil {
					f.Stage = r.Fault.Stage
					f.Stack = r.Fault.Stack
				}
				f.Events = r.Trail
				m.Failures = append(m.Failures, f)
			}
		}
	}
	return m, err
}

// runCell produces the report for one case×tool cell: the analysis runs
// under the runner's containment guard and per-cell watchdog, and a
// transient failure is retried once (the compile cache never keeps a
// transient failure, so the retry redoes the frontend). Deterministic
// failures — including contained panics — are quarantined as-is: retrying a panic would just
// crash the same way again, and the manifest should carry the first stack.
func runCell(ctx context.Context, cache *driver.Cache, t tools.Tool, c *suite.Case, copts driver.Options, opts Options) tools.Report {
	ctx, sp := obs.StartSpan(ctx, "cell")
	rep := analyzeCell(ctx, cache, t, c, copts, opts)
	if rep.Transient && ctx.Err() == nil {
		time.Sleep(retryBackoff)
		rep = analyzeCell(ctx, cache, t, c, copts, opts)
		rep.Retried = true
	}
	if sp.Recording() {
		sp.SetAttr("case", c.Name)
		sp.SetAttr("tool", t.Name())
		sp.SetAttr("verdict", rep.Verdict.String())
		sp.End()
	}
	return rep
}

// analyzeCell is one guarded attempt at a cell.
func analyzeCell(ctx context.Context, cache *driver.Cache, t tools.Tool, c *suite.Case, copts driver.Options, opts Options) tools.Report {
	unit := c.Name + ".c"
	if opts.CaseTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.CaseTimeout)
		defer cancel()
	}
	var rep tools.Report
	err := fault.Guard(fault.StageRunner, unit, func() error {
		if err := opts.Injector.Fire(SiteAnalyze, unit); err != nil {
			return err
		}
		rep = analyzeShared(ctx, cache, t, c, copts)
		return nil
	})
	if err != nil {
		rep = tools.ReportFromError(err)
	}
	return rep
}

// analyzeShared compiles through the cache (one frontend pass per case,
// shared across tools and workers) and runs the tool's fast path. The
// report carries only the tool's own RunDuration — the shared compile is
// accounted once, in FrontendStats, not once per tool.
func analyzeShared(ctx context.Context, cache *driver.Cache, t tools.Tool, c *suite.Case, copts driver.Options) tools.Report {
	prog, err := cache.CompileCtx(ctx, c.Source, c.Name+".c", copts)
	if err != nil {
		rep := tools.ReportFromError(err)
		if rep.Verdict == tools.Inconclusive {
			rep.Detail = "compile: " + err.Error()
		}
		return rep
	}
	return t.AnalyzeProgram(ctx, prog, c.Name+".c")
}

// ToolScore aggregates one tool's results over a set of cases.
type ToolScore struct {
	Flagged        int // bad cases reported
	BadTotal       int
	FalsePositives int // good cases reported
	GoodTotal      int
	Crashed        int
	Inconclusive   int
	// Timeouts counts per-cell watchdog expiries; InternalErrors counts
	// contained pipeline panics. Both are non-verdicts like Inconclusive,
	// but tracked separately so a fault-injection or flaky run is visible
	// in the aggregate.
	Timeouts       int
	InternalErrors int
	// CompileTime is frontend time the tool paid itself (zero under the
	// shared cache, where compiles are accounted in FrontendStats).
	CompileTime time.Duration
	// RunTime is the tool's own analysis time (the §5.1.2 cost).
	RunTime time.Duration
	Runs    int
	// Metrics is the merged execution-metrics snapshot over the tool's
	// runs, present only when the tools were configured with
	// Config{Metrics: true}. Per-case snapshots are merged in case order;
	// counter addition is commutative, so the merge is deterministic
	// regardless of worker scheduling.
	Metrics *obs.Snapshot
}

// TotalTime is the wall time attributed to the tool.
func (s ToolScore) TotalTime() time.Duration { return s.CompileTime + s.RunTime }

// Pct is the paper's "% passed": the percentage of undefined tests the tool
// reported.
func (s ToolScore) Pct() float64 {
	if s.BadTotal == 0 {
		return 0
	}
	return 100 * float64(s.Flagged) / float64(s.BadTotal)
}

// MeanTime is the average wall time per test.
func (s ToolScore) MeanTime() time.Duration {
	if s.Runs == 0 {
		return 0
	}
	return s.TotalTime() / time.Duration(s.Runs)
}

// Figure2 is the Juliet comparison: rows are defect classes, columns tools.
type Figure2 struct {
	Classes []string
	Tests   map[string]int                  // bad tests per class
	Scores  map[string]map[string]ToolScore // class → tool → score
	Tools   []string
	Overall map[string]ToolScore
	// Frontend accounts the shared compile work of the run.
	Frontend FrontendStats
}

// RunJuliet evaluates the tools on the Juliet-style suite with a single
// worker (the sequential baseline). Use RunJulietOpts for parallelism.
func RunJuliet(s *suite.Suite, ts []tools.Tool) *Figure2 {
	fig, _ := RunJulietOpts(s, ts, Options{Parallelism: 1})
	return fig
}

// RunJulietOpts evaluates the tools on the Juliet-style suite under opts.
func RunJulietOpts(s *suite.Suite, ts []tools.Tool, opts Options) (*Figure2, error) {
	m, err := RunMatrix(s, ts, opts)
	if err != nil {
		return nil, err
	}
	return Figure2From(s, ts, m), nil
}

// Figure2From aggregates an executed matrix into the Figure-2 view.
func Figure2From(s *suite.Suite, ts []tools.Tool, m *MatrixResult) *Figure2 {
	fig := &Figure2{
		Classes:  suite.JulietClasses,
		Tests:    map[string]int{},
		Scores:   map[string]map[string]ToolScore{},
		Overall:  map[string]ToolScore{},
		Frontend: m.Frontend,
	}
	for _, t := range ts {
		fig.Tools = append(fig.Tools, t.Name())
	}
	for _, class := range fig.Classes {
		fig.Scores[class] = map[string]ToolScore{}
	}
	for ci := range s.Cases {
		c := &s.Cases[ci]
		if c.Bad {
			fig.Tests[c.Class]++
		}
		for ti, t := range ts {
			rep := m.Reports[ci][ti]
			sc := fig.Scores[c.Class][t.Name()]
			ov := fig.Overall[t.Name()]
			score(&sc, c.Bad, rep)
			score(&ov, c.Bad, rep)
			fig.Scores[c.Class][t.Name()] = sc
			fig.Overall[t.Name()] = ov
		}
	}
	return fig
}

// RenderMetrics prints the per-tool metrics footer (ubsuite -metrics):
// one summary line per tool from the merged suite-level snapshots.
func (f *Figure2) RenderMetrics() string {
	var b strings.Builder
	b.WriteString("Execution metrics per tool\n")
	for _, tn := range f.Tools {
		sc := f.Overall[tn]
		if sc.Metrics == nil {
			continue
		}
		fmt.Fprintf(&b, "  %-14s %s\n", tn, sc.Metrics.Summary())
	}
	return b.String()
}

func score(sc *ToolScore, bad bool, rep tools.Report) {
	sc.Runs++
	sc.CompileTime += rep.CompileDuration
	sc.RunTime += rep.RunDuration
	if rep.Metrics != nil {
		if sc.Metrics == nil {
			sc.Metrics = &obs.Snapshot{}
		}
		sc.Metrics.AddCase(rep.Metrics)
	}
	if bad {
		sc.BadTotal++
		if rep.Verdict == tools.Flagged {
			sc.Flagged++
		}
	} else {
		sc.GoodTotal++
		if rep.Verdict == tools.Flagged {
			sc.FalsePositives++
		}
	}
	switch rep.Verdict {
	case tools.Crashed:
		sc.Crashed++
	case tools.Inconclusive:
		sc.Inconclusive++
	case tools.Timeout:
		sc.Timeouts++
	case tools.InternalError:
		sc.InternalErrors++
	}
}

// Render prints the Figure-2 table in the paper's layout.
func (f *Figure2) Render() string {
	var b strings.Builder
	b.WriteString("Figure 2. Comparison of analysis tools on the Juliet-style suite\n\n")
	fmt.Fprintf(&b, "%-28s %9s", "Undefined Behavior", "No. Tests")
	for _, tn := range f.Tools {
		fmt.Fprintf(&b, " %12s", tn)
	}
	b.WriteString("\n")
	for _, class := range f.Classes {
		fmt.Fprintf(&b, "%-28s %9d", class, f.Tests[class])
		for _, tn := range f.Tools {
			fmt.Fprintf(&b, " %12.1f", f.Scores[class][tn].Pct())
		}
		b.WriteString("\n")
	}
	b.WriteString("\nMean time per test:")
	for _, tn := range f.Tools {
		fmt.Fprintf(&b, "  %s %.2fms", tn, float64(f.Overall[tn].MeanTime().Microseconds())/1000)
	}
	if f.Frontend.Compiles > 0 {
		mean := f.Frontend.Time / time.Duration(f.Frontend.Compiles)
		fmt.Fprintf(&b, "\nFrontend (shared): %d compiles, %d cache hits, %.2fms mean compile",
			f.Frontend.Compiles, f.Frontend.CacheHits, float64(mean.Microseconds())/1000)
	}
	b.WriteString("\nFalse positives on paired defined tests:")
	for _, tn := range f.Tools {
		fmt.Fprintf(&b, "  %s %d", tn, f.Overall[tn].FalsePositives)
	}
	b.WriteString("\n")
	return b.String()
}

// Figure3 is the own-suite comparison: per tool, the average detection rate
// across behaviors, static and dynamic separately ("averages are across
// undefined behaviors, and no behavior is weighted more than another").
type Figure3 struct {
	Tools      []string
	Static     map[string]float64
	Dynamic    map[string]float64
	NumStatic  int
	NumDynamic int
	FalsePos   map[string]int
	// Frontend accounts the shared compile work of the run.
	Frontend FrontendStats
}

// RunOwn evaluates the tools on the paper's own suite with a single
// worker (the sequential baseline). Use RunOwnOpts for parallelism.
func RunOwn(s *suite.Suite, ts []tools.Tool) *Figure3 {
	fig, _ := RunOwnOpts(s, ts, Options{Parallelism: 1})
	return fig
}

// RunOwnOpts evaluates the tools on the paper's own suite under opts.
func RunOwnOpts(s *suite.Suite, ts []tools.Tool, opts Options) (*Figure3, error) {
	m, err := RunMatrix(s, ts, opts)
	if err != nil {
		return nil, err
	}
	return Figure3From(s, ts, m), nil
}

// Figure3From aggregates an executed matrix into the Figure-3 view.
func Figure3From(s *suite.Suite, ts []tools.Tool, m *MatrixResult) *Figure3 {
	reports := m.Reports
	fig := &Figure3{
		Static:   map[string]float64{},
		Dynamic:  map[string]float64{},
		FalsePos: map[string]int{},
		Frontend: m.Frontend,
	}
	for _, t := range ts {
		fig.Tools = append(fig.Tools, t.Name())
	}
	// behavior → tool → (flagged, total) over bad tests. Behaviors are
	// kept in first-seen case order so the floating-point averages below
	// accumulate in a deterministic order.
	type tally struct{ flagged, total int }
	perBehavior := map[*ub.Behavior]map[string]*tally{}
	static := map[*ub.Behavior]bool{}
	var order []*ub.Behavior
	for ci := range s.Cases {
		c := &s.Cases[ci]
		if c.Behavior == nil {
			continue
		}
		if _, ok := perBehavior[c.Behavior]; !ok {
			perBehavior[c.Behavior] = map[string]*tally{}
			for _, t := range ts {
				perBehavior[c.Behavior][t.Name()] = &tally{}
			}
			static[c.Behavior] = c.Static
			order = append(order, c.Behavior)
		}
		for ti, t := range ts {
			rep := reports[ci][ti]
			if c.Bad {
				tl := perBehavior[c.Behavior][t.Name()]
				tl.total++
				if rep.Verdict == tools.Flagged {
					tl.flagged++
				}
			} else if rep.Verdict == tools.Flagged {
				fig.FalsePos[t.Name()]++
			}
		}
	}
	// Average per behavior, equally weighted.
	for _, t := range ts {
		var stSum, dySum float64
		var stN, dyN int
		for _, beh := range order {
			tl := perBehavior[beh][t.Name()]
			if tl.total == 0 {
				continue
			}
			rate := 100 * float64(tl.flagged) / float64(tl.total)
			if static[beh] {
				stSum += rate
				stN++
			} else {
				dySum += rate
				dyN++
			}
		}
		if stN > 0 {
			fig.Static[t.Name()] = stSum / float64(stN)
		}
		if dyN > 0 {
			fig.Dynamic[t.Name()] = dySum / float64(dyN)
		}
		fig.NumStatic, fig.NumDynamic = stN, dyN
	}
	return fig
}

// Render prints the Figure-3 table in the paper's layout.
func (f *Figure3) Render() string {
	var b strings.Builder
	b.WriteString("Figure 3. Comparison of analysis tools on the authors' own suite\n")
	fmt.Fprintf(&b, "(averages across %d static and %d dynamic behaviors, equally weighted)\n\n",
		f.NumStatic, f.NumDynamic)
	fmt.Fprintf(&b, "%-14s %18s %19s\n", "Tools", "Static (% Passed)", "Dynamic (% Passed)")
	for _, tn := range f.Tools {
		fmt.Fprintf(&b, "%-14s %18.1f %19.1f\n", tn, f.Static[tn], f.Dynamic[tn])
	}
	b.WriteString("\nFalse positives on paired defined tests:")
	for _, tn := range f.Tools {
		fmt.Fprintf(&b, "  %s %d", tn, f.FalsePos[tn])
	}
	b.WriteString("\n")
	return b.String()
}

// CatalogSummary renders the §5.2.1 classification counts.
func CatalogSummary() string {
	c := ub.Count()
	var b strings.Builder
	b.WriteString("Classification of undefined behaviors (paper §5.2.1)\n\n")
	fmt.Fprintf(&b, "  total undefined behaviors: %d\n", c.Total)
	fmt.Fprintf(&b, "  statically detectable:     %d\n", c.Static)
	fmt.Fprintf(&b, "  only dynamically:          %d\n", c.Dynamic)
	fmt.Fprintf(&b, "  core language:             %d\n", c.Core)
	fmt.Fprintf(&b, "  library:                   %d\n", c.Library)
	fmt.Fprintf(&b, "  dynamic, core, portable:   %d\n", c.CoreDynamicPortable)
	return b.String()
}

// SortedBehaviors lists catalog entries sorted by code (for -catalog).
func SortedBehaviors() []*ub.Behavior {
	out := append([]*ub.Behavior{}, ub.Catalog...)
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}
