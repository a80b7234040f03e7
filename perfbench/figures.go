package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/suite"
	"repro/internal/tools"
)

// figures regenerates the paper's Figure 2 (Juliet) and Figure 3 (own
// suite) once per op, through runner.RunMatrix with the four tools, the
// default engine and model, and a fresh compile cache: every pass pays
// the cold frontend a ubsuite run pays. Throughput counts matrix cells
// over the pass's segments (see phase.itemRate); the latency
// quantiles are those of cell latency (compile wait plus analysis, as
// the runner records it), taken per pass.
type figures struct {
	cfg    *config
	suites []*suite.Suite
	tools  []tools.Tool
	// ref is the verdict matrix of the first pass that met every known
	// answer; each later pass must reproduce it exactly.
	ref [][][]tools.Verdict
}

func newFigures(cfg *config) *figures {
	return &figures{cfg: cfg, tools: tools.All(tools.Config{Injector: cfg.injector})}
}

// setup generates both suites and cold-compiles every unit.
func (f *figures) setup(ctx context.Context) error {
	var j, o *suite.Suite
	f.cfg.steps.time("generate", func() error {
		j, o = suite.Juliet(), suite.Own()
		return nil
	})
	if f.cfg.tiny {
		j.Cases, o.Cases = j.Cases[:8], o.Cases[:8]
	}
	cache := driver.NewCache()
	for _, s := range []*suite.Suite{j, o} {
		for _, c := range s.Cases {
			// A unit that does not compile is part of the suite (a static
			// UB test); its verdict is part of every pass's matrix.
			f.cfg.steps.time(s.Name+"/"+c.Name, func() error {
				_, _ = cache.Compile(c.Source, c.Name+".c", driver.Options{})
				return nil
			})
		}
	}
	f.suites = []*suite.Suite{j, o}
	return nil
}

func (f *figures) close() {}

func (f *figures) run(ctx context.Context, p *phase, tr *tracer, dur time.Duration) {
	start := time.Now()
	for {
		f.pass(ctx, p, tr)
		if time.Since(start) >= dur {
			return
		}
	}
}

// segmentCells is the length of a pass segment in completed cells: at
// about ten thousand cells a second, under a millisecond.
const segmentCells = 8

func (f *figures) cells() int {
	n := 0
	for _, s := range f.suites {
		n += len(s.Cases) * len(f.tools)
	}
	return n
}

func (f *figures) pass(ctx context.Context, p *phase, tr *tracer) {
	ctx, sp := tr.op(ctx, "figures.pass")
	cache := driver.NewCache()
	t0 := time.Now()
	ok := true
	matrix := make([][][]tools.Verdict, len(f.suites))
	cellTime := &obs.HistogramSnapshot{}
	// ends are the pass's segment boundaries: every segmentCells-th cell
	// the runner delivers, and the end of each suite's matrix.
	var ends []time.Duration
	for si, s := range f.suites {
		done := 0
		m, err := runner.RunMatrix(s, f.tools, runner.Options{
			Parallelism: f.cfg.workers, Cache: cache, Context: ctx,
			OnCell: func(runner.Cell) {
				if done++; done%segmentCells == 0 {
					ends = append(ends, time.Since(t0))
				}
			},
		})
		ends = append(ends, time.Since(t0))
		if err != nil {
			logFailure("figures: %s: %v", s.Name, err)
			ok = false
			continue
		}
		if !f.check(s, m) {
			ok = false
		}
		matrix[si] = verdicts(m)
		cellTime.Merge(m.CellTime)
	}
	d := time.Since(t0)
	sp.End()
	if ok {
		if f.ref == nil {
			f.ref = matrix
		} else if !sameMatrix(f.ref, matrix) {
			logFailure("figures: verdict matrix differs from the first pass")
			ok = false
		}
	}
	st := cache.Stats()
	p.add("driver.compiles", float64(st.Compiles))
	p.add("driver.hits", float64(st.Hits))
	p.add("driver.lookups", float64(st.Hits+st.Misses))
	p.add("driver.waits", float64(st.Waits))
	p.add("driver.compile_ms", float64(st.CompileTime)/float64(time.Millisecond))
	p.record(d, float64(f.cells()), ok)
	if ok {
		if p.items == nil {
			p.items, p.passWork = newItemTimes(), float64(f.cells())
		}
		var prev time.Duration
		for i, e := range ends {
			p.items.add(fmt.Sprint("segment ", i), (e - prev).Seconds())
			prev = e
		}
	}
	p.cellP50 = append(p.cellP50, float64(cellTime.Quantile(0.5))/1e6)
	p.cellP90 = append(p.cellP90, float64(cellTime.Quantile(0.9))/1e6)
}

// check holds a matrix to the known answers: no contained or timed-out
// cell, every _good control accepted by all four tools, every Juliet
// _bad case flagged by kcc.
func (f *figures) check(s *suite.Suite, m *runner.MatrixResult) bool {
	ok := true
	if len(m.Failures) > 0 {
		fl := m.Failures[0]
		logFailure("figures: %d failed cells, first %s/%s: %s", len(m.Failures), fl.Case, fl.Tool, fl.Verdict)
		ok = false
	}
	if m.Skipped > 0 {
		logFailure("figures: %d cells skipped", m.Skipped)
		ok = false
	}
	for ci, c := range s.Cases {
		for ti, t := range f.tools {
			v := m.Reports[ci][ti].Verdict
			switch {
			case !c.Bad && v != tools.Accepted:
				logFailure("figures: %s: %s says %s, want accepted", c.Name, t.Name(), v)
				ok = false
			case c.Bad && s.Name == "juliet" && t.Name() == "kcc" && v != tools.Flagged:
				logFailure("figures: %s: kcc says %s, want flagged", c.Name, v)
				ok = false
			}
		}
	}
	return ok
}

func verdicts(m *runner.MatrixResult) [][]tools.Verdict {
	out := make([][]tools.Verdict, len(m.Reports))
	for i, row := range m.Reports {
		out[i] = make([]tools.Verdict, len(row))
		for j, r := range row {
			out[i][j] = r.Verdict
		}
	}
	return out
}

func sameMatrix(a, b [][][]tools.Verdict) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// layers reports the driver and runner layers of the figures passes. The
// runner figures come from the program's own "cell" spans, recorded by
// the collector the traced phase installs.
func (f *figures) layers(m metricSet, untraced, traced *phase, tr *tracer) {
	m.set("driver.compiles_per_op", untraced.perOp("driver.compiles"), "count")
	m.set("driver.hit_share", ratio(untraced.get("driver.hits"), untraced.get("driver.lookups")), "ratio")
	m.set("driver.waits_per_op", untraced.perOp("driver.waits"), "count")
	m.set("driver.compile_ms_per_op", untraced.perOp("driver.compile_ms"), "ms")

	var busy float64
	var cells []float64
	for _, s := range tr.spans("cell") {
		us := float64(s.Dur) / float64(time.Microsecond)
		busy += us
		cells = append(cells, us)
	}
	wallUS := float64(traced.wall) / float64(time.Microsecond)
	m.set("runner.busy_share", ratio(busy, wallUS*float64(f.cfg.workers)), "ratio")
	m.set("runner.cell_p50_us", median(cells), "us")
}
