package interp

// Emission helpers for the observability layer (internal/obs). Every helper
// begins with the same test of its event kind against the observer's
// declared kinds (in.obsKinds, empty without an observer), so the
// no-observer configuration — and any kind the observer would discard —
// costs one predictable branch per site and constructs nothing. Events are
// written into the interpreter's scratch Event (in.obsEv) — the Interp is
// already a single heap allocation, so emission itself never allocates.

import (
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/token"
)

// classOf maps a memory object kind to the observability access class.
func classOf(k mem.ObjKind) obs.AccessClass {
	switch k {
	case mem.ObjStatic:
		return obs.ClassStatic
	case mem.ObjAuto:
		return obs.ClassAuto
	case mem.ObjHeap:
		return obs.ClassHeap
	case mem.ObjFunc:
		return obs.ClassFunc
	case mem.ObjString:
		return obs.ClassString
	}
	return obs.ClassStatic
}

// obsMem reports one checked memory access (kind is EvRead or EvWrite).
// off is the starting byte offset within o, so the event carries the full
// [off, off+size) footprint the access touched.
func (in *Interp) obsMem(kind obs.EventKind, o *mem.Object, off, size int64, pos token.Pos) {
	if !in.obsKinds.Has(kind) {
		return
	}
	in.obsEv = obs.Event{Kind: kind, Pos: pos, Class: classOf(o.Kind), Size: size, Obj: int64(o.ID), Off: off}
	in.obs.Event(&in.obsEv)
}

// obsCheckPass reports that check site s was evaluated and did not fire.
// (Fired checks are reported by ubError, the single construction funnel for
// UB verdicts.)
func (in *Interp) obsCheckPass(s *CheckSite, pos token.Pos) {
	// The coverage ledger counts every evaluation, observer or not.
	in.coverageHit(s.b.Code, false)
	if !in.obsKinds.Has(obs.EvCheck) {
		return
	}
	in.obsEv = obs.Event{Kind: obs.EvCheck, Pos: pos, Behavior: s.b}
	in.obs.Event(&in.obsEv)
}

// coverageHit counts one check evaluation in the run's tally — a plain
// increment on memory no other worker touches. After the tally has been
// flushed, counts go straight to the ledger.
func (in *Interp) coverageHit(code int, fired bool) {
	if in.cov == nil {
		obs.CoverageHit(code, fired)
		return
	}
	in.cov.Hit(code, fired)
}

// flushCoverage adds the run's tally to the global coverage ledger.
func (in *Interp) flushCoverage() {
	if in.cov != nil {
		in.cov.Flush()
		in.cov = nil
	}
}

// order asks the scheduler for a complete evaluation order of n
// unsequenced operands and reports the choice. The order is built in
// perm's backing array, which is grown only when it holds fewer than n
// elements: each step moves the picked operand to the front of the
// remaining ones and shifts the rest up, so the remaining operands stay
// in source order and the scheduler sees exactly the Pick(n), Pick(n−1),
// …, Pick(1) sequence replay depends on. A single operand is no choice:
// the scheduler is not consulted.
func (in *Interp) order(perm []int, n int) []int {
	if cap(perm) < n {
		perm = make([]int, n)
	}
	perm = perm[:n]
	for i := range perm {
		perm[i] = i
	}
	if n > 1 {
		for i := range perm {
			k := in.sched.Pick(n - i)
			if k < 0 || k >= n-i {
				panic("interp: scheduler Pick out of range")
			}
			picked := perm[i+k]
			copy(perm[i+1:i+k+1], perm[i:i+k])
			perm[i] = picked
		}
	}
	if in.obsKinds.Has(obs.EvSched) {
		choice := 0
		if n > 0 {
			choice = perm[0]
		}
		in.obsEv = obs.Event{Kind: obs.EvSched, Choice: choice, Fanout: n}
		in.obs.Event(&in.obsEv)
	}
	return perm
}

// obsBuiltin reports a call to a library builtin.
func (in *Interp) obsBuiltin(name string, pos token.Pos) {
	if !in.obsKinds.Has(obs.EvBuiltin) {
		return
	}
	in.obsEv = obs.Event{Kind: obs.EvBuiltin, Pos: pos, Name: name}
	in.obs.Event(&in.obsEv)
}
