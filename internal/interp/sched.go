package interp

// Scheduler decides the order in which unsequenced operands are evaluated
// (C's evaluation order is almost completely unspecified, §2.5.2). At each
// choice point the interpreter asks Pick(n) for an index among the n
// not-yet-evaluated operands.
//
// A deterministic run uses LeftToRight; the search driver (internal/search)
// uses Trace to enumerate every ordering.
type Scheduler interface {
	Pick(n int) int
}

// OperandTracker is an optional extension a Scheduler can implement to
// follow the structure of scheduling points, not just their decisions.
// The interpreter notifies the tracker once after each operand of a
// multi-operand scheduling point finishes evaluating; both engines make
// the identical calls at the identical places, so a tracker sees the same
// sequence under "tree" and "vm".
//
// Pairing notifications with points needs no extra protocol: the whole
// permutation of a point is drawn eagerly (Pick(n), Pick(n−1), …, Pick(1)
// are contiguous, before any operand runs), so the first Pick after an
// operand phase opens a new innermost point and each OperandDone closes
// one operand of it. Single-operand points (fanout 1) are not tracked —
// they have no alternative orders, so their accesses simply accumulate
// into the enclosing operand.
//
// The search driver's partial-order-reduction recorder is the one
// implementation: it buckets observer read/write events per operand and
// prunes sibling orders whose footprints commute.
type OperandTracker interface {
	OperandDone()
}

// LeftToRight always evaluates the leftmost remaining operand — the order
// almost every real compiler happens to use for simple expressions.
type LeftToRight struct{}

// Pick implements Scheduler.
func (LeftToRight) Pick(n int) int { return 0 }

// RightToLeft evaluates operands right to left (the order the paper's
// CompCert anecdote exercises in §2.5.2).
type RightToLeft struct{}

// Pick implements Scheduler.
func (RightToLeft) Pick(n int) int { return n - 1 }

// Choice records one decision: the branching factor and the index taken.
type Choice struct {
	N      int
	Picked int
}

// Trace replays a decision prefix and then defaults to leftmost, logging
// every decision so a search can enumerate the decision tree.
type Trace struct {
	Prefix []int
	Log    []Choice
	pos    int
}

// Pick implements Scheduler.
func (t *Trace) Pick(n int) int {
	c := 0
	if t.pos < len(t.Prefix) {
		c = t.Prefix[t.pos]
	}
	if c >= n || c < 0 {
		c = 0
	}
	t.Log = append(t.Log, Choice{N: n, Picked: c})
	t.pos++
	return c
}
