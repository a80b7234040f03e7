package interp

// Machine-state hashing for the search driver's explored-state
// deduplication. Two runs that reach the same digest at the same output
// position are (heuristically) in the same machine state, so the subtree
// of evaluation orders below that point need only be explored once.

import "repro/internal/mem"

// StateDigest folds the machine's observable state — memory, activation
// stack, sequence-point sets, RNG state, and the step counter — into one
// 64-bit identity. It is a heuristic identity (hash collisions are
// possible), so callers must treat equal digests as an accelerator, never
// as a soundness argument; internal/search only consults it when its
// opt-in Dedup option is set.
//
// The step counter is deliberately part of the identity: the budget is
// observable (a run can die of step exhaustion), so two states that agree
// on memory but not on steps consumed can still diverge.
func (in *Interp) StateDigest() uint64 {
	h := in.store.Digest(mem.HashSeed)
	h = mem.HashMix(h, uint64(in.steps))
	h = mem.HashMix(h, in.rngState)
	h = mem.HashMix(h, uint64(in.synthCasts))
	h = mem.HashMix(h, uint64(len(in.frames)))
	for _, f := range in.frames {
		h = mem.HashString(h, f.fn.Name)
		// Fold every bound slot with its object. Slots, unlike names,
		// tell shadowed locals apart.
		for slot, id := range f.locals {
			if id != 0 {
				h = mem.HashMix(mem.HashMix(h, uint64(slot)), uint64(id))
			}
		}
		h = mem.HashMix(h, uint64(len(f.blockStack)))
	}
	h = mem.HashMix(h, uint64(len(in.seq)))
	for _, s := range in.seq {
		h = mem.HashMix(h, s.written.fold())
		h = mem.HashMix(h, s.read.fold())
	}
	return h
}

// fold hashes the set's contents order-independently (neither the spill
// map nor the dedup slice has a canonical iteration order).
func (s *seqSet) fold() uint64 {
	var acc uint64
	if s.m != nil {
		for l := range s.m {
			acc += mem.LocHash(l)
		}
	} else {
		for _, l := range s.locs {
			acc += mem.LocHash(l)
		}
	}
	return mem.HashMix(acc, uint64(s.Len()))
}
