package search

// The parallel frontier explorer behind Explore.
//
// Work items are decision prefixes. A run with prefix P replays P and
// then picks leftmost (0) at every further choice, so one run covers the
// decision-tree path P·0·0·…; expansion enqueues, for every fresh
// position i (i ≥ len(P)) with branching factor n, the sibling prefixes
// picks[0..i)+[c] for c ≠ picks[i]. Every enqueued prefix ends in a
// non-zero decision, so each tree node has exactly one run responsible
// for expanding it — no node is enqueued twice.
//
// Partial-order reduction changes only the expansion step. A choice
// point visited in canonical (all-leftmost) order is judged by its
// operand footprints: if every pair of operands commutes, the siblings
// are deferred — provably, every sibling order reaches the same machine
// state, so only the count is recorded (OrdersPruned). The judgment is
// per tree *node*, because a point that looks independent on one visit
// can reveal a conflict on a later visit through the same node (a nested
// alternative changes what an operand does). The explorer keeps the
// decision tree itself as the registry: one node per exact pick path,
// children indexed by pick, and each run walks it once from the root
// along its own picks — so the bookkeeping for a run costs time and
// space linear in its trace. The first visit that observes a conflict
// flips the node to expanded and enqueues all deferred siblings — late,
// but exactly once, and before any run that could need them exists
// (alternative runs below the node are only enqueued by runs that
// already went through this bookkeeping).
//
// Dedup changes only who is responsible: a run that reaches a top-level
// choice point whose machine state another run already claimed stops
// expanding from that position on — the claiming run owns the subtree.

import (
	"context"
	"strconv"
	"sync"

	"repro/internal/fault"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/sema"
)

// node is one decision-tree node — the position reached by one exact
// pick path from the root — and its POR registry entry. Identity is the
// path itself, never a hash of it: two merged nodes would silently share
// a judgment and lose exploration. Nodes live in explorer.nodes and refer
// to their children by index, so the tree holds no pointers for the
// garbage collector to scan.
type node struct {
	// kids is the index in explorer.kids of this node's first child slot
	// (one slot per pick, holding the child's index in explorer.nodes, 0
	// until visited: the root is no node's child), or 0 before the first
	// descent (kids[0] is a sentinel no node owns).
	kids int32
	// expanded: a conflict was observed through this node; all sibling
	// orders are (or are being) enqueued, and later visits do nothing.
	expanded bool
	// pruned is the number of sibling branches currently deferred at
	// this node (rolled back if the node is later expanded).
	pruned int64
}

// child returns the index of the node reached by pick c from node nd,
// where n choices are available, creating it on the first visit. Replay
// is deterministic, so every visit to a position sees the same n. Called
// with e.mu held.
func (e *explorer) child(nd int32, c, n int) int32 {
	k := e.nodes[nd].kids
	if k == 0 {
		k = int32(len(e.kids))
		e.nodes[nd].kids = k
		e.kids = extend(e.kids, n)
	}
	slot := &e.kids[int(k)+c]
	if *slot == 0 {
		*slot = int32(len(e.nodes))
		e.nodes = extend(e.nodes, 1)
	}
	return *slot
}

// extend returns s with n zero elements appended. A full backing array is
// replaced by one twice the needed size: append grows large slices by
// only about 1.25x, which for a tree of ~10^5 nodes allocates several
// times its final size.
func extend[T any](s []T, n int) []T {
	if len(s)+n > cap(s) {
		grown := make([]T, len(s), 2*(len(s)+n))
		copy(grown, s)
		s = grown
	}
	s = s[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

type explorer struct {
	prog    *sema.Program
	opts    Options
	ctx     context.Context
	maxRuns int
	por     bool
	dedup   bool

	// states is the dedup registry: machine-state digests, first claimer
	// owns the subtree. Accessed mid-run from worker goroutines, hence a
	// sync.Map rather than the explorer mutex.
	states sync.Map // uint64 → struct{}

	mu        sync.Mutex
	cond      *sync.Cond
	queue     [][]int
	pending   int // queued + in-flight work items
	runs      int
	truncated bool // budget hit, cancelled, or stopped at first UB
	stopped   bool // stop dispatching new work now
	seen      map[string]bool
	outcomes  []Outcome
	// nodes and kids are the POR registry: the decision tree from the
	// empty path, rooted at nodes[0] (see node).
	nodes   []node
	kids    []int32
	pruned  int64
	deduped int64

	cbMu sync.Mutex // serializes OnOutcome

	// par is the worker count; the caller's goroutine is worker one and
	// helpers counts the other workers started so far (see run).
	par, helpers int
	wg           sync.WaitGroup // the started helpers
	// panicked is the first panic any worker recovered; run raises it
	// again on the caller's goroutine.
	panicked *fault.Relayed
}

func newExplorer(ctx context.Context, prog *sema.Program, opts Options, maxRuns int) *explorer {
	e := &explorer{
		prog:    prog,
		opts:    opts,
		ctx:     ctx,
		maxRuns: maxRuns,
		por:     opts.POR,
		dedup:   opts.Dedup,
		seen:    make(map[string]bool),
		nodes:   make([]node, 1),
		kids:    make([]int32, 1),
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// claimState registers a machine-state digest; it reports whether this
// run is the first claimer (and therefore owns the subtree).
func (e *explorer) claimState(key uint64) bool {
	_, loaded := e.states.LoadOrStore(key, struct{}{})
	return !loaded
}

// run seeds the frontier with the root prefix and works it off on the
// calling goroutine, the first worker, until the pool drains (or the
// search stops early). The other par-1 workers start only once a finished
// run has put work on the frontier, so a one-run exploration starts no
// goroutine and runs on the caller's already-grown stack. A panic in any
// worker stops the search and is raised again here, on the caller's
// goroutine, as a *fault.Relayed carrying the worker's value and stack:
// the caller's containment holds whichever goroutine ran the run.
func (e *explorer) run(par int) {
	e.queue = [][]int{{}}
	e.pending = 1
	e.par = par
	e.worker()
	e.wg.Wait()
	if e.panicked != nil {
		panic(e.panicked)
	}
}

// startHelpersLocked starts the workers that are not running yet, once
// the frontier holds work for them. Called with e.mu held.
func (e *explorer) startHelpersLocked() {
	if e.helpers == e.par-1 || len(e.queue) == 0 {
		return
	}
	e.wg.Add(e.par - 1 - e.helpers)
	for ; e.helpers < e.par-1; e.helpers++ {
		go func() {
			defer e.wg.Done()
			e.worker()
		}()
	}
}

func (e *explorer) worker() {
	// One span per worker (not per run: a search performs thousands of
	// runs) so the tracing layer can follow an exploration across the
	// pool. Free when no collector is installed.
	_, sp := obs.StartSpan(e.ctx, "search.worker")
	runs := 0
	defer func() {
		if r := recover(); r != nil {
			e.stop(fault.Relay(r))
		}
		sp.SetAttr("runs", strconv.Itoa(runs))
		sp.End()
	}()
	rec := newRecorder(e)
	for {
		e.mu.Lock()
		for !e.stopped && e.pending > 0 && len(e.queue) == 0 {
			e.cond.Wait()
		}
		if e.stopped || e.pending == 0 {
			e.mu.Unlock()
			break
		}
		p := e.queue[len(e.queue)-1]
		e.queue = e.queue[:len(e.queue)-1]
		e.mu.Unlock()

		e.runOne(rec, p)
		runs++

		e.mu.Lock()
		e.pending--
		done := e.pending == 0
		e.mu.Unlock()
		if done {
			e.cond.Broadcast()
		}
	}
}

// stop ends the search after a worker panicked, keeping the first panic
// for run to raise.
func (e *explorer) stop(p *fault.Relayed) {
	e.mu.Lock()
	if e.panicked == nil {
		e.panicked = p
	}
	e.stopped = true
	e.truncated = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

// runOne executes one prefix with the worker's recorder and folds the
// result (outcome, expansion, stats) into the shared state.
func (e *explorer) runOne(rec *recorder, prefix []int) {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	if e.runs >= e.maxRuns {
		// The frontier still held work: the tree is not exhausted.
		e.truncated = true
		e.mu.Unlock()
		return
	}
	e.runs++
	e.mu.Unlock()

	if e.ctx.Err() != nil {
		e.cancelRun()
		return
	}

	rec.reset(prefix)
	iopts := interp.Options{
		Sched:   rec,
		Out:     rec.sink,
		Budget:  interp.Budget{MaxSteps: e.opts.MaxSteps},
		Context: e.ctx,
	}
	if e.por {
		iopts.Observer = rec
	}
	in := interp.New(e.prog, iopts)
	rec.in = in
	runRes := in.RunMachine()
	if e.ctx.Err() != nil {
		// Interrupted mid-execution: the outcome is an artifact of the
		// cancellation, not a program behavior.
		e.cancelRun()
		return
	}

	out := Outcome{
		ExitCode: runRes.ExitCode,
		Output:   rec.sink.String(),
		UB:       runRes.UB,
		Err:      runRes.Err,
		Trace:    append([]int{}, prefix...),
	}

	deliver, snap := e.fold(rec, out)
	e.cond.Broadcast()
	if deliver && e.opts.OnOutcome != nil {
		e.deliver(out, snap)
	}
}

// fold merges one finished run into the shared state: its expansion goes
// on the frontier (starting the helpers if they are not running yet) and
// a new behavior is recorded. It reports whether out is new and, if so,
// the stats to deliver it with. The deferred unlock keeps e.mu usable by
// the other workers even if a bug panics here.
func (e *explorer) fold(rec *recorder, out Outcome) (deliver bool, snap Stats) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fresh := e.expandLocked(rec, e.maxRuns-e.runs-len(e.queue))
	if !e.stopped && len(fresh) > 0 {
		e.queue = append(e.queue, fresh...)
		e.pending += len(fresh)
		e.startHelpersLocked()
	}
	if k := out.Key(); !e.seen[k] {
		e.seen[k] = true
		e.outcomes = append(e.outcomes, out)
		deliver = true
		if out.UB != nil && e.opts.StopAtFirstUB {
			e.stopped = true
			e.truncated = true
		}
	}
	if deliver && e.opts.OnOutcome != nil {
		snap = e.statsLocked()
	}
	return deliver, snap
}

// deliver calls OnOutcome, one call at a time. The deferred unlock lets
// the other workers deliver (or stop) if the callback panics.
func (e *explorer) deliver(out Outcome, snap Stats) {
	e.cbMu.Lock()
	defer e.cbMu.Unlock()
	e.opts.OnOutcome(out, snap)
}

// cancelRun retracts a run the context interrupted and stops the pool.
func (e *explorer) cancelRun() {
	e.mu.Lock()
	e.runs--
	e.truncated = true
	e.stopped = true
	e.mu.Unlock()
	e.cond.Broadcast()
}

func (e *explorer) statsLocked() Stats {
	return Stats{
		OrdersExplored: int64(e.runs),
		OrdersPruned:   e.pruned,
		StatesDeduped:  e.deduped,
	}
}

// expandLocked turns one finished run into the sibling prefixes the
// frontier still needs, at most room of them. Called with e.mu held.
//
// The room cap is load-bearing, not cosmetic: a deep trace (a loop body
// with choice points) holds far more sibling prefixes than the remaining
// run budget, and each one copies its whole pick path — uncapped, a
// single 40k-point trace would materialize gigabytes of prefixes that
// the budget guarantees are dropped at claim time. Suppressing an append
// marks the search truncated, which is the verdict those drops would
// have produced anyway.
func (e *explorer) expandLocked(rec *recorder, room int) [][]int {
	p := len(rec.prefix)
	limit := len(rec.log)
	if rec.dedupHit >= 0 {
		// Another run owns the machine state from this position on; its
		// subtree — including POR bookkeeping for nodes inside it — is
		// that run's responsibility. Expanding here would duplicate the
		// owner's subtree under a different path.
		limit = rec.dedupHit
		e.deduped++
	}
	for _, c := range rec.log {
		rec.picks = append(rec.picks, c.Picked)
	}
	picks := rec.picks

	var fresh [][]int
	add := func(g, c int) {
		if len(fresh) >= room {
			e.truncated = true
			return
		}
		fresh = append(fresh, altPrefix(picks, g, c))
	}
	// nd is the tree node at depth, walked forward along picks; points
	// are in firstPick order, so the walk visits each position once.
	var nd int32 // the root
	depth := 0
	for i := range rec.points {
		pt := &rec.points[i]
		if pt.firstPick >= limit {
			break // points are in firstPick order
		}
		gEnd := pt.firstPick + pt.fanout // the point's Pick positions: [firstPick, gEnd)

		if e.por && pt.canonical {
			// Canonical visit: this run carries the judgment of the node
			// at picks[:firstPick].
			for ; depth < pt.firstPick; depth++ {
				// A forced pick (the last of a permutation, Pick(1))
				// names no branch, so it gets no node of its own.
				if n := rec.log[depth].N; n > 1 {
					nd = e.child(nd, picks[depth], n)
				}
			}
			cur := &e.nodes[nd]
			if cur.expanded {
				continue
			}
			if pt.conflicted(rec) {
				// Conflict evidence (possibly found late, by a nested
				// alternative's visit): expand every deferred sibling of
				// the node, exactly once.
				cur.expanded = true
				e.pruned -= cur.pruned
				cur.pruned = 0
				for g := pt.firstPick; g < gEnd; g++ {
					n := rec.log[g].N
					for c := 1; c < n; c++ {
						add(g, c)
					}
				}
			} else if pt.firstPick >= p && cur.pruned == 0 {
				// Independent point, first (responsible) visit: defer the
				// siblings and record how many branches that suppressed.
				for g := pt.firstPick; g < gEnd; g++ {
					cur.pruned += int64(rec.log[g].N - 1)
				}
				e.pruned += cur.pruned
			}
			continue
		}

		// Plain expansion (POR off, or a non-canonical visit — whose
		// node was necessarily already expanded): enqueue siblings at
		// fresh positions only.
		for g := max(pt.firstPick, p); g < gEnd && g < limit; g++ {
			n := rec.log[g].N
			for c := 0; c < n; c++ {
				if c != picks[g] {
					add(g, c)
				}
			}
		}
	}
	return fresh
}

// altPrefix builds the sibling prefix picks[0..g) + [c].
func altPrefix(picks []int, g, c int) []int {
	pre := make([]int, g+1)
	copy(pre, picks[:g])
	pre[g] = c
	return pre
}
