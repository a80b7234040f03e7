package mem

// State hashing for the search driver's explored-state deduplication: the
// whole symbolic store folds into one 64-bit digest, so two runs that
// reached the same memory state at a choice point can share the subtree
// below it instead of exploring it twice. The digest is a heuristic
// identity (collisions are possible, if unlikely), which is why the search
// treats deduplication as an opt-in accelerator, never a soundness
// mechanism.

// Hash-mixing primitives (splitmix64-style finalization): strong enough
// avalanche that per-byte folding doesn't cluster, and far cheaper than a
// cryptographic hash on the per-choice-point path.

// HashSeed is the canonical starting value for the digest fold.
const HashSeed uint64 = 0x9E3779B97F4A7C15

// HashMix folds v into h.
func HashMix(h, v uint64) uint64 {
	h ^= v + 0x9E3779B97F4A7C15 + (h << 6) + (h >> 2)
	h *= 0xBF58476D1CE4E5B9
	return h ^ (h >> 27)
}

// HashString folds s into h.
func HashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = HashMix(h, uint64(s[i]))
	}
	return HashMix(h, uint64(len(s)))
}

// digestByte folds one symbolic byte into h, tagged by representation so
// Concrete(0), an unknown byte, and a pointer fragment can never collide
// structurally. A fragment folds its pointer's base and offset.
func (s *Store) digestByte(h uint64, b Byte) uint64 {
	switch b.kind() {
	case kindConcrete:
		return HashMix(h, 1<<56|uint64(b.low()))
	case kindFrag:
		p := s.fragPtr(b.id())
		h = HashMix(h, 2<<56|uint64(b.low()))
		h = HashMix(h, uint64(p.Base))
		return HashMix(h, uint64(p.Off))
	default:
		return HashMix(h, 3<<56|uint64(b.id()))
	}
}

// Digest folds the entire store — every object's kind, size, liveness, and
// byte contents, in allocation order — into h. Allocation order is part of
// the identity on purpose: object IDs are observable through pointer
// comparisons and synthetic addresses, so two stores that differ only in
// ID assignment are not interchangeable states.
func (s *Store) Digest(h uint64) uint64 {
	h = HashMix(h, uint64(len(s.objs)))
	for _, o := range s.objs {
		tag := uint64(o.Kind) << 8
		if o.Live {
			tag |= 1
		}
		h = HashMix(h, tag)
		h = HashMix(h, uint64(o.Size))
		for _, b := range o.Data {
			h = s.digestByte(h, b)
		}
	}
	return HashMix(h, uint64(s.unknownSeq))
}

// LocHash hashes one byte location, for order-independent set folds
// (sequence-point sets have no canonical iteration order).
func LocHash(l Loc) uint64 {
	return HashMix(HashMix(HashSeed, uint64(l.Obj)), uint64(l.Off))
}
