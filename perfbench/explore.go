package main

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/driver"
	"repro/internal/search"
	"repro/internal/sema"
	"repro/internal/suite"
)

const (
	// exploreMaxRuns caps every exploration. Under POR most programs need
	// one run; the recursive programs hit this cap, and at this cap they
	// set most of a pass's time, so throughput follows the capped class
	// while p50 stays in the sub-millisecond one.
	exploreMaxRuns = 16
	// exploreDeadline bounds one exploration; it never expires on a
	// healthy build, and an op that hits it counts as failed.
	exploreDeadline = 20 * time.Second
)

// exploreKind selects the known answer an exploration is held to.
type exploreKind int

const (
	kindOther     exploreKind = iota // own-suite _bad: no fixed answer
	kindGood                         // _good control: no order shows UB
	kindJulietBad                    // Juliet _bad: a finished search shows UB
	kindTorture                      // every order matches Output/ExitCode
)

type exploreItem struct {
	name     string
	source   string
	prog     *sema.Program
	kind     exploreKind
	exitCode int
	output   string
}

// explore runs one search.Explore per op, with POR on (the /v1/explore
// default), over every suite and torture program that compiles, in an
// order the seed shuffles anew for each pass.
type explore struct {
	cfg  *config
	pool []exploreItem
	rng  *rand.Rand
}

func newExplore(cfg *config) *explore {
	return &explore{cfg: cfg, rng: rand.New(rand.NewSource(cfg.seed))}
}

// setup cold-compiles the pool.
func (e *explore) setup(ctx context.Context) error {
	var cases []exploreItem
	var suites []*suite.Suite
	var torture []suite.TortureCase
	e.cfg.steps.time("generate", func() error {
		suites, torture = []*suite.Suite{suite.Juliet(), suite.Own()}, suite.Torture()
		return nil
	})
	for _, s := range suites {
		for _, c := range s.Cases {
			it := exploreItem{name: c.Name, source: c.Source}
			switch {
			case !c.Bad:
				it.kind = kindGood
			case s.Name == "juliet":
				it.kind = kindJulietBad
			}
			cases = append(cases, it)
		}
	}
	for _, t := range torture {
		cases = append(cases, exploreItem{name: t.Name, source: t.Source, kind: kindTorture, exitCode: t.ExitCode, output: t.Output})
	}
	if e.cfg.tiny {
		cases = tinyExplorePool(cases)
	}
	pool := cases[:0]
	for i, it := range cases {
		var prog *sema.Program
		err := e.cfg.steps.time(fmt.Sprintf("compile %d", i), func() (err error) {
			prog, err = driver.Compile(it.source, it.name+".c", driver.Options{})
			return err
		})
		if err != nil {
			continue // a unit that does not compile is not explored
		}
		it.prog = prog
		pool = append(pool, it)
	}
	e.pool = pool
	return nil
}

// tinyExplorePool keeps a few cases of each kind plus one recursive
// torture program, for the benchmark's own test.
func tinyExplorePool(cases []exploreItem) []exploreItem {
	var out []exploreItem
	seen := map[exploreKind]int{}
	for _, it := range cases {
		if seen[it.kind] < 3 || it.name == "mutual_recursion" {
			seen[it.kind]++
			out = append(out, it)
		}
	}
	return out
}

func (e *explore) close() {}

func (e *explore) run(ctx context.Context, p *phase, tr *tracer, dur time.Duration) {
	if p.items == nil {
		p.items, p.passWork = newItemTimes(), float64(len(e.pool))
	}
	start := time.Now()
	for {
		order := e.rng.Perm(len(e.pool))
		for _, i := range order {
			p.items.add(fmt.Sprint("program ", i), e.op(ctx, &e.pool[i], p, tr).Seconds())
		}
		p.mark()
		if time.Since(start) >= dur {
			return
		}
	}
}

// op runs one exploration and returns its wall time.
func (e *explore) op(ctx context.Context, it *exploreItem, p *phase, tr *tracer) time.Duration {
	ctx, sp := tr.op(ctx, "explore.op")
	ctx, cancel := context.WithTimeout(ctx, exploreDeadline)
	t0 := time.Now()
	res := search.Explore(ctx, it.prog, search.Options{
		MaxRuns: exploreMaxRuns, POR: true, Parallelism: e.cfg.workers,
	})
	d := time.Since(t0)
	timedOut := ctx.Err() != nil
	cancel()
	if sp.Recording() {
		sp.SetAttr("program", it.name)
		sp.End()
	}
	ok := !timedOut && e.check(it, &res)
	if timedOut {
		logFailure("explore: %s: deadline exceeded after %d runs", it.name, res.Runs)
	}
	p.add("search.runs", float64(res.Runs))
	p.add("search.pruned", float64(res.Stats.OrdersPruned))
	p.add("search.outcomes", float64(len(res.Outcomes)))
	p.add("search.wall_us", float64(res.Stats.WallNS)/1e3)
	if !res.Exhausted {
		p.add("search.capped", 1)
	}
	p.record(d, 1, ok)
	return d
}

// check holds every outcome to the program's known answer.
func (e *explore) check(it *exploreItem, res *search.Result) bool {
	hasUB := false
	for _, o := range res.Outcomes {
		if o.Err != nil {
			logFailure("explore: %s: run error: %v", it.name, o.Err)
			return false
		}
		if o.UB != nil {
			hasUB = true
		}
		if it.kind == kindTorture && (o.UB != nil || o.ExitCode != it.exitCode || o.Output != it.output) {
			logFailure("explore: %s: an order gives exit %d output %q, want exit %d output %q",
				it.name, o.ExitCode, abbrev(o.Output), it.exitCode, abbrev(it.output))
			return false
		}
	}
	switch {
	case it.kind == kindGood && hasUB:
		logFailure("explore: %s: a _good control shows undefined behavior", it.name)
		return false
	case it.kind == kindJulietBad && res.Exhausted && !hasUB:
		logFailure("explore: %s: finished search found no undefined behavior", it.name)
		return false
	}
	return true
}

func abbrev(s string) string {
	if len(s) > 40 {
		return s[:40] + "..."
	}
	return strings.TrimSpace(s)
}

func (e *explore) layers(m metricSet, untraced, traced *phase, tr *tracer) {
	runs := untraced.get("search.runs")
	m.set("search.runs_per_op", untraced.perOp("search.runs"), "count")
	m.set("search.us_per_run", ratio(untraced.get("search.wall_us"), runs), "us")
	m.set("search.pruned_per_run", ratio(untraced.get("search.pruned"), runs), "count")
	m.set("search.capped_share", untraced.perOp("search.capped"), "ratio")
	m.set("search.outcomes_per_run", ratio(untraced.get("search.outcomes"), runs), "count")
}
