// Package search explores the unspecified evaluation orders of a C program
// (paper §2.5.2): "any tool seeking to identify all undefined behaviors
// must search all possible evaluation strategies."
//
// The interpreter consults a Scheduler at every unsequenced choice point;
// this driver enumerates the resulting decision tree. Two explorers share
// the Outcome/Result vocabulary:
//
//   - Explore: a parallel frontier search. Decision-trace prefixes fan out
//     over a bounded worker pool; each run replays its prefix and extends
//     it leftmost, and every fresh choice point it passes enqueues the
//     sibling prefixes. With Options.POR the search applies partial-order
//     reduction — sibling orders of a choice point whose operand
//     footprints commute (disjoint locsWrittenTo/locsRead byte ranges,
//     §4.2.1, and no order-sensitive effects) are pruned, soundly, because
//     commuting operands reach the same machine state in every order. With
//     Options.Dedup runs additionally hash the machine state at top-level
//     choice points and abandon subtrees another run already owns.
//   - ExploreDFS: the sequential depth-first enumeration, kept as the
//     oracle the differential gate compares Explore against. It visits
//     every leaf of the decision tree, no pruning, no concurrency.
//
// Each complete run is one evaluation order; the outcomes (exit codes,
// outputs, UB verdicts) are collected and deduplicated by behavior.
package search

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/interp"
	"repro/internal/sema"
	"repro/internal/ub"
)

// Outcome is one observed program behavior.
type Outcome struct {
	ExitCode int
	Output   string
	UB       *ub.Error
	Err      error
	// Trace is the decision prefix that produced this outcome.
	Trace []int
}

// Key canonicalizes the outcome for deduplication.
func (o Outcome) Key() string {
	switch {
	case o.UB != nil:
		return fmt.Sprintf("UB:%d:%s", o.UB.Behavior.Code, o.UB.Msg)
	case o.Err != nil:
		return "ERR:" + o.Err.Error()
	default:
		return fmt.Sprintf("OK:%d:%s", o.ExitCode, o.Output)
	}
}

// Options bound and shape the exploration.
type Options struct {
	// MaxRuns caps the number of executions (0 = 10000).
	MaxRuns int
	// MaxSteps bounds each single execution.
	MaxSteps int64
	// StopAtFirstUB ends the search as soon as any UB is found.
	StopAtFirstUB bool
	// Parallelism is the number of workers executing runs (0 or
	// negative = GOMAXPROCS). Workers pull decision prefixes from a
	// shared frontier; every run is an independent interpreter instance,
	// so outcomes are byte-identical to a sequential search — only
	// discovery order varies. The goroutine calling Explore is the first
	// worker; the other Parallelism-1 start only once a finished run has
	// put work on the frontier, so a one-run exploration starts none.
	Parallelism int
	// POR enables partial-order reduction: a choice point whose operands
	// provably commute (disjoint read/write footprints, no allocation
	// pairs, no output, no RNG, no lifetime ends, no address exposure)
	// keeps only its canonical leftmost order. Pruning is evidence-driven
	// and fails open — any conflict, any run error, any effect the
	// recorder cannot attribute expands the point to all orders.
	POR bool
	// Dedup enables explored-state deduplication: at each top-level
	// choice point a run hashes the machine state (interp.StateDigest
	// mixed with the output so far) and, if another run already owns that
	// state, stops spawning alternatives below it. The digest is a
	// heuristic identity, so Dedup is an opt-in accelerator — leave it
	// off when exactness matters more than speed.
	Dedup bool
	// OnOutcome, when non-nil, is called once per distinct behavior, in
	// discovery order, with a stats snapshot taken at delivery time.
	// Calls are serialized (never concurrent) but may come from any
	// worker goroutine. A slow callback backpressures the search, which
	// is what a streaming consumer wants. A panic in it, as in any run,
	// stops the search and is raised again on Explore's caller.
	OnOutcome func(Outcome, Stats)
}

// Stats counts the work an exploration did. The JSON shape is part of the
// /v1/explore wire format (trailer frames and the buffered response).
type Stats struct {
	// OrdersExplored is the number of complete executions performed.
	OrdersExplored int64 `json:"orders_explored"`
	// OrdersPruned is the number of sibling branches partial-order
	// reduction suppressed (decision-tree edges not taken, not leaves).
	OrdersPruned int64 `json:"orders_pruned"`
	// StatesDeduped is the number of runs that hit an already-owned
	// machine state and stopped spawning alternatives.
	StatesDeduped int64 `json:"states_deduped"`
	// WallNS is the wall-clock duration of the whole search.
	WallNS int64 `json:"wall_ns"`
	// Parallelism is the resolved worker count: the most workers the
	// search could use. Helpers start only when the frontier has work,
	// so fewer may have run.
	Parallelism int `json:"parallelism"`
}

// Result aggregates a search.
type Result struct {
	// Outcomes are the distinct behaviors observed, in discovery order.
	Outcomes []Outcome
	// Runs is the number of executions performed.
	Runs int
	// Exhausted reports whether the whole decision tree was covered
	// (under POR: up to pruned orders, which provably reach no new
	// behavior).
	Exhausted bool
	// Stats breaks down the exploration work.
	Stats Stats
}

// UB returns the first undefined behavior among the outcomes, if any.
func (r *Result) UB() *ub.Error {
	for _, o := range r.Outcomes {
		if o.UB != nil {
			return o.UB
		}
	}
	return nil
}

// Deterministic reports whether every explored order produced the same
// behavior.
func (r *Result) Deterministic() bool { return len(r.Outcomes) <= 1 }

// Explore runs prog under every evaluation order (up to the budget),
// fanning runs out over Options.Parallelism workers, the calling
// goroutine first. ctx cancels the search: in-flight runs stop at the
// next step poll and the frontier is abandoned, returning the outcomes
// observed so far with Exhausted false. A nil ctx means
// context.Background(). A panic on any worker stops the search and
// panics again on the caller's goroutine with a *fault.Relayed that
// carries the worker's panic value and stack, so fault.Guard around
// Explore contains it.
func Explore(ctx context.Context, prog *sema.Program, opts Options) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	maxRuns := opts.MaxRuns
	if maxRuns == 0 {
		maxRuns = 10000
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := newExplorer(ctx, prog, opts, maxRuns)
	start := time.Now()
	e.run(par)
	res := Result{
		Outcomes:  e.outcomes,
		Runs:      e.runs,
		Exhausted: !e.truncated,
		Stats: Stats{
			OrdersExplored: int64(e.runs),
			OrdersPruned:   e.pruned,
			StatesDeduped:  e.deduped,
			WallNS:         time.Since(start).Nanoseconds(),
			Parallelism:    par,
		},
	}
	return res
}

// ExploreDFS enumerates the decision tree depth-first, sequentially, with
// no pruning and no deduplication — every leaf is executed. It is the
// oracle implementation: the differential gate asserts that Explore (with
// any Parallelism/POR/Dedup combination) finds exactly the outcome set
// ExploreDFS finds. Only MaxRuns, MaxSteps, and StopAtFirstUB are
// honored. ctx cancels the search; a nil ctx means context.Background().
func ExploreDFS(ctx context.Context, prog *sema.Program, opts Options) Result {
	if ctx == nil {
		ctx = context.Background()
	}
	maxRuns := opts.MaxRuns
	if maxRuns == 0 {
		maxRuns = 10000
	}
	start := time.Now()
	var res Result
	defer func() {
		res.Stats.OrdersExplored = int64(res.Runs)
		res.Stats.WallNS = time.Since(start).Nanoseconds()
		res.Stats.Parallelism = 1
	}()
	seen := make(map[string]bool)

	// DFS over decision prefixes. The stack invariant: prefix is the next
	// decision sequence to force; after a run we extend/backtrack based on
	// the logged branching factors.
	prefix := []int{}
	for {
		if res.Runs >= maxRuns {
			return res
		}
		if ctx.Err() != nil {
			return res
		}
		tr := &interp.Trace{Prefix: append([]int{}, prefix...)}
		runRes := interp.Run(prog, interp.Options{Sched: tr, Budget: interp.Budget{MaxSteps: opts.MaxSteps}, Context: ctx})
		res.Runs++
		if ctx.Err() != nil {
			// The run was interrupted mid-execution: its outcome is an
			// artifact of the cancellation, not a program behavior.
			res.Runs--
			return res
		}

		out := Outcome{
			ExitCode: runRes.ExitCode,
			Output:   runRes.Output,
			UB:       runRes.UB,
			Err:      runRes.Err,
			Trace:    append([]int{}, prefix...),
		}
		if k := out.Key(); !seen[k] {
			seen[k] = true
			res.Outcomes = append(res.Outcomes, out)
			if out.UB != nil && opts.StopAtFirstUB {
				return res
			}
		}

		// Compute the next prefix: find the deepest decision that can be
		// incremented.
		log := tr.Log
		next := make([]int, 0, len(log))
		for _, c := range log {
			next = append(next, c.Picked)
		}
		i := len(next) - 1
		for i >= 0 {
			if next[i]+1 < log[i].N {
				break
			}
			i--
		}
		if i < 0 {
			res.Exhausted = true
			return res
		}
		prefix = append(next[:i:i], next[i]+1)
	}
}
