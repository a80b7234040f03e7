package interp

import (
	"testing"

	"repro/internal/mem"
)

// TestPushSeqStartsEmpty: a call depth's sequence-point state is reused
// across activations, so a new activation must start with empty sets
// whatever the previous activation at that depth left behind — here a
// pending write and a spilled read set.
func TestPushSeqStartsEmpty(t *testing.T) {
	in := orderInterp(t, LeftToRight{})
	in.pushSeq()
	in.pushSeq()
	s := in.curSeq()
	s.written.AddRange(mem.ObjID(3), 0, 4)
	s.read.AddRange(mem.ObjID(4), 0, 2*seqSpill)
	in.seq = in.seq[:len(in.seq)-1] // the activation returns
	in.pushSeq()
	if s2 := in.curSeq(); s2 != s {
		t.Fatal("state not reused")
	} else if s2.written.Len() != 0 || s2.read.Len() != 0 || s2.read.m != nil {
		t.Fatalf("reused state not empty: written %d, read %d", s2.written.Len(), s2.read.Len())
	}
}
