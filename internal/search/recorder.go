package search

// The per-run recorder: one instance is the run's Scheduler, its
// OperandTracker, and its Observer at once, so it sees every decision,
// every operand boundary, and every memory access of exactly one
// execution. From that triple view it reconstructs the run's choice
// points and attributes an effect footprint to each operand — the
// evidence partial-order reduction prunes (or refuses to prune) on.
//
// Structure recovery needs no protocol beyond what the interpreter
// already guarantees (see interp.OperandTracker): a scheduling point of
// fanout n draws its whole permutation eagerly — Pick(n), Pick(n−1), …,
// Pick(1) are contiguous, before any operand runs — so the first Pick
// after an operand phase opens a new innermost point, and each
// OperandDone closes one operand of the innermost open point. Fanout-1
// points make no Pick at all, so every logged decision belongs to a
// point with alternatives.
//
// Footprints cost linear space in the trace. Every read and write is
// logged once, in one flat per-run access log; an operand's footprint is
// the range of that log between the operand's start and its
// OperandDone, which includes the accesses of every point nested inside
// it. The flag effects are likewise counter deltas taken at the same two
// boundaries, so an event costs O(1) however deep the open points nest.

import (
	"strings"

	"repro/internal/interp"
	"repro/internal/obs"
)

// access is one logged memory access: [off, off+n) on object obj.
type access struct {
	obj, off, n int64
	write       bool
}

// accessesConflict reports whether any access of a overlaps one of b
// with at least one of the pair a write.
func accessesConflict(a, b []access) bool {
	for i := range a {
		for j := range b {
			if (a[i].write || b[j].write) && a[i].obj == b[j].obj &&
				a[i].off < b[j].off+b[j].n && b[j].off < a[i].off+a[i].n {
				return true
			}
		}
	}
	return false
}

// footprint is the observed effect set of one operand of one choice
// point. Reads and writes are the range [lo, hi) of the run's access
// log; the flag effects come from counter deltas snapshotted around the
// operand (allocation, lifetime ends, address exposure, output,
// sequence points, builtin calls).
type footprint struct {
	lo, hi int

	alloc  bool // allocated an object (IDs are order-sensitive)
	kills  bool // ended a lifetime (unevented effect; conflicts with all)
	output bool // wrote to the program's output stream
	rng    bool // advanced the rand() state
	synth  bool // exposed a synthetic object address as an integer
	// barrier marks an operand that passed a sequence point (a call's
	// §6.5.2.2:10 point, a comma, && … — anything that clears the
	// locsWrittenTo/locsRead sets). Moving a clear across a sibling's
	// accesses changes which accesses are still pending when a later
	// conflicting access is checked, so a barrier operand commutes only
	// with access-free siblings — even when every byte span is disjoint.
	barrier bool
	// universal marks an operand that called a builtin which touches
	// memory without observer events (memcpy, strcpy, printf's format
	// walk, …): its true footprint is unknown, so it conflicts with
	// every sibling.
	universal bool
}

// pureBuiltins are the builtins whose effect is fully captured by their
// evented argument reads: no raw o.Data access, no output, no RNG, no
// allocation. Everything else is treated as a universal conflict.
var pureBuiltins = map[string]bool{
	"abs": true, "labs": true,
	"isdigit": true, "isalpha": true, "isspace": true,
	"isupper": true, "islower": true,
	"toupper": true, "tolower": true,
}

// conflicts reports whether two operand footprints fail to commute: if it
// returns false, running them in either order reaches the same machine
// state and produces the same observables. log is the run's access log.
func (f *footprint) conflicts(g *footprint, log []access) bool {
	if f.universal || g.universal {
		return true
	}
	if f.kills || g.kills {
		return true // which object IDs die when is not tracked per byte
	}
	if f.alloc && g.alloc {
		return true // allocation order assigns observable object IDs
	}
	if f.output && g.output {
		return true // output interleaving is the observable itself
	}
	if f.rng && g.rng {
		return true // both advance the same RNG stream
	}
	if (f.synth && g.alloc) || (g.synth && f.alloc) {
		return true // exposed addresses observe allocation order
	}
	if (f.barrier && g.hasAccess()) || (g.barrier && f.hasAccess()) {
		return true // a sequence point flushes the sibling's pending accesses
	}
	return accessesConflict(log[f.lo:f.hi], log[g.lo:g.hi])
}

func (f *footprint) hasAccess() bool { return f.hi > f.lo }

// pointRec is one choice point of the run under reconstruction. Points
// live by value in the recorder's points slab and are addressed by index,
// so the slab is reused from run to run.
type pointRec struct {
	// firstPick is the log position of the point's Pick(n) — the node of
	// the decision tree the point sits at is identified by the pick path
	// up to (excluding) this position.
	firstPick int
	fanout    int
	// opsLo locates the point's footprints: the range [opsLo,
	// opsLo+fanout) of the recorder's ops slab, one per operand.
	opsLo int
	// canonical reports that every decision of this point's group was 0
	// (the leftmost order) — only canonical visits carry POR bookkeeping
	// for the node, so each node is judged by exactly one order shape.
	canonical bool
	// complete reports that all fanout operands finished evaluating. A
	// run that errors mid-point leaves it incomplete, and an incomplete
	// point is never pruned (its unseen operands could conflict).
	complete bool
}

// openPoint is a point whose operands are still being evaluated: its
// index in the points slab and the state of its current operand. Only
// open points need it, so it lives on the recorder's stack.
type openPoint struct {
	pt   int32
	done int // operands finished so far = index of the current footprint

	// Counter snapshots taken at the start of the current operand; the
	// deltas at OperandDone set the footprint's flag effects.
	objsSnap  int
	killsSnap int64
	synthSnap int64
	outSnap   int
	seqSnap   int
	rngSnap   int
	rawSnap   int
}

func (op *openPoint) snap(r *recorder) {
	st := r.in.MemStore()
	r.ops[r.points[op.pt].opsLo+op.done].lo = len(r.accesses)
	op.objsSnap = st.NumObjects()
	op.killsSnap = st.Kills()
	op.synthSnap = r.in.SynthAddrCasts()
	op.outSnap = r.sink.Len()
	op.seqSnap = r.seqPoints
	op.rngSnap = r.rngCalls
	op.rawSnap = r.rawCalls
}

func (op *openPoint) capture(r *recorder) {
	f := &r.ops[r.points[op.pt].opsLo+op.done]
	st := r.in.MemStore()
	f.hi = len(r.accesses)
	f.alloc = st.NumObjects() != op.objsSnap
	f.kills = st.Kills() != op.killsSnap
	f.synth = r.in.SynthAddrCasts() != op.synthSnap
	f.output = r.sink.Len() != op.outSnap
	f.barrier = r.seqPoints != op.seqSnap
	f.rng = r.rngCalls != op.rngSnap
	f.universal = r.rawCalls != op.rawSnap
}

// conflicted reports whether any pair of the point's operands fails to
// commute, given the run's footprints and access log. An incomplete point
// (a run error skipped an OperandDone) always conflicts: pruning needs
// positive evidence about every operand.
func (pt *pointRec) conflicted(r *recorder) bool {
	if !pt.complete {
		return true
	}
	ops := r.ops[pt.opsLo : pt.opsLo+pt.fanout]
	for i := range ops {
		for j := i + 1; j < len(ops); j++ {
			if ops[i].conflicts(&ops[j], r.accesses) {
				return true
			}
		}
	}
	return false
}

// recorder drives and observes one run. Each explorer worker keeps one
// recorder and resets it between runs, so its slabs — the log, the access
// log, the points and their footprints — are allocated once per worker,
// not once per run.
type recorder struct {
	exp    *explorer
	prefix []int
	in     *interp.Interp
	sink   *strings.Builder

	log []interp.Choice
	pos int
	// picks is expandLocked's scratch: the run's pick path.
	picks []int

	// track enables footprint reconstruction (set iff POR is on; the
	// recorder is also installed as the run's Observer only then).
	track bool

	stack  []openPoint // open points, innermost last
	points []pointRec  // every point, in open (= firstPick) order
	ops    []footprint // every point's footprints; see pointRec.opsLo

	// accesses is the run's access log: every read and write made while
	// a point is open, in execution order. The counters tally the other
	// evented effects over the same span; footprints are deltas of both.
	accesses  []access
	seqPoints int // sequence points passed
	rngCalls  int // rand/srand calls
	rawCalls  int // calls of builtins that touch memory without events

	// groupLeft counts the Picks still to be drawn for the innermost
	// point's permutation; 0 means the next Pick opens a new point.
	groupLeft int

	// dedupHit is the log position at which this run found its machine
	// state already owned by another run (-1: never). Expansion and POR
	// bookkeeping stop at this position — the owning run is responsible
	// for the subtree.
	dedupHit int

	// outHash is the FNV-1a state over the first outHashed bytes of the
	// run's output, so the dedup key hashes each output byte once.
	outHash   uint64
	outHashed int
}

func newRecorder(e *explorer) *recorder {
	return &recorder{exp: e, track: e.por}
}

// reset prepares r for a run of prefix: every slab is truncated in place
// and every other field starts fresh. The sink is new each run because
// the run's Outcome keeps the string it returns.
func (r *recorder) reset(prefix []int) {
	*r = recorder{
		exp:      r.exp,
		prefix:   prefix,
		sink:     &strings.Builder{},
		log:      r.log[:0],
		picks:    r.picks[:0],
		track:    r.track,
		stack:    r.stack[:0],
		points:   r.points[:0],
		ops:      r.ops[:0],
		accesses: r.accesses[:0],
		dedupHit: -1,
		outHash:  fnvOffset,
	}
}

// outputDigest is the FNV-1a hash of the output so far, extended over
// only the bytes written since the last call.
func (r *recorder) outputDigest() uint64 {
	s := r.sink.String()
	h := r.outHash
	for i := r.outHashed; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	r.outHash, r.outHashed = h, len(s)
	return h
}

// Pick implements interp.Scheduler: replay the prefix, then leftmost —
// the same decision rule as interp.Trace — while reconstructing point
// structure.
func (r *recorder) Pick(n int) int {
	c := 0
	if r.pos < len(r.prefix) {
		c = r.prefix[r.pos]
	}
	if c >= n || c < 0 {
		c = 0
	}
	if r.groupLeft == 0 && n >= 2 {
		// First Pick of a new point's permutation draw.
		if r.exp.dedup && len(r.stack) == 0 && r.pos >= len(r.prefix) && r.dedupHit < 0 {
			// Top-level choice point in fresh territory: hash the machine
			// state; if another run owns it, the subtree below is theirs.
			key := r.in.StateDigest()
			key ^= r.outputDigest()
			if !r.exp.claimState(key) {
				r.dedupHit = r.pos
			}
		}
		r.points = append(r.points, pointRec{firstPick: r.pos, fanout: n, opsLo: len(r.ops), canonical: true})
		r.ops = extend(r.ops, n)
		r.stack = append(r.stack, openPoint{pt: int32(len(r.points) - 1)})
		if r.track {
			r.stack[len(r.stack)-1].snap(r)
		}
		r.groupLeft = n
	}
	if r.groupLeft > 0 {
		r.groupLeft--
		if c != 0 {
			r.points[r.stack[len(r.stack)-1].pt].canonical = false
		}
	}
	r.log = append(r.log, interp.Choice{N: n, Picked: c})
	r.pos++
	return c
}

// OperandDone implements interp.OperandTracker: one operand of the
// innermost open point finished.
func (r *recorder) OperandDone() {
	if len(r.stack) == 0 {
		return
	}
	top := &r.stack[len(r.stack)-1]
	if r.track {
		top.capture(r)
	}
	top.done++
	if pt := &r.points[top.pt]; top.done == pt.fanout {
		pt.complete = true
		r.stack = r.stack[:len(r.stack)-1]
		return
	}
	if r.track {
		top.snap(r)
	}
}

// Event implements obs.Observer: log each memory access, and count each
// sequence point and effectful builtin, while any point is open. Every
// open point's current operand sees the entry through its log range and
// counter deltas, so an event costs O(1) at any nesting depth.
func (r *recorder) Event(ev *obs.Event) {
	if !r.track || len(r.stack) == 0 {
		return
	}
	switch ev.Kind {
	case obs.EvRead, obs.EvWrite:
		r.accesses = append(r.accesses, access{obj: ev.Obj, off: ev.Off, n: ev.Size, write: ev.Kind == obs.EvWrite})
	case obs.EvSeqPoint:
		// Conservative: a callee-internal sequence point only clears the
		// callee's own sets, but the event stream does not distinguish
		// activations, so every flush is treated as a caller barrier.
		r.seqPoints++
	case obs.EvBuiltin:
		switch {
		case pureBuiltins[ev.Name]:
			// fully captured by its evented argument reads
		case ev.Name == "rand" || ev.Name == "srand":
			r.rngCalls++
		default:
			r.rawCalls++
		}
	}
}

// Kinds implements obs.KindFilter: the interpreter builds no event the
// recorder would discard, such as steps and check passes.
func (r *recorder) Kinds() obs.KindSet {
	return obs.KindsOf(obs.EvRead, obs.EvWrite, obs.EvSeqPoint, obs.EvBuiltin)
}

// FNV-1a, 64-bit.
const (
	fnvOffset uint64 = 1469598103934665603
	fnvPrime  uint64 = 1099511628211
)
