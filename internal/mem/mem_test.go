package mem

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/ctypes"
)

var m = ctypes.LP64()

func TestIntRoundTrip(t *testing.T) {
	types := []*ctypes.Type{
		ctypes.TChar, ctypes.TUChar, ctypes.TShort, ctypes.TUShort,
		ctypes.TInt, ctypes.TUInt, ctypes.TLong, ctypes.TULong,
		ctypes.TLongLong, ctypes.TULongLong,
	}
	f := func(raw uint64, pick uint8) bool {
		ty := types[int(pick)%len(types)]
		want := m.Wrap(ty, raw)
		enc := EncodeInt(m, ty, want)
		if int64(len(enc)) != m.Size(ty) {
			return false
		}
		got, res := DecodeInt(m, ty, enc)
		return res == DecodeOK && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFloatRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		enc := EncodeFloat(m, ctypes.TDouble, x)
		got, res := DecodeFloat(m, ctypes.TDouble, enc)
		return res == DecodeOK && (got == x || got != got && x != x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// float truncates.
	enc := EncodeFloat(m, ctypes.TFloat, 1.5)
	if len(enc) != 4 {
		t.Fatalf("float encoding is %d bytes", len(enc))
	}
	got, res := DecodeFloat(m, ctypes.TFloat, enc)
	if res != DecodeOK || got != 1.5 {
		t.Errorf("float round trip: %v %v", got, res)
	}
}

func TestPtrRoundTrip(t *testing.T) {
	pt := ctypes.PointerTo(ctypes.TInt)
	p := Ptr{T: pt, Base: 7, Off: 12}
	s := NewStore()
	enc := encodePtr(t, s, p)
	if len(enc) != 8 {
		t.Fatalf("pointer is %d bytes", len(enc))
	}
	got, res := s.DecodePtr(m, pt, enc)
	if res != PtrOK || got != p {
		t.Errorf("round trip: %v %v", got, res)
	}
}

// TestPtrPartialReassembly checks the §4.3.2 property: a pointer can only
// be reconstituted from ALL of its bytes, in order.
func TestPtrPartialReassembly(t *testing.T) {
	pt := ctypes.PointerTo(ctypes.TInt)
	p := Ptr{T: pt, Base: 7, Off: 12}
	q := Ptr{T: pt, Base: 9, Off: 0}
	s := NewStore()
	pe, qe := encodePtr(t, s, p), encodePtr(t, s, q)

	// Mixed fragments: torn.
	mixed := append(append([]Byte{}, pe[:4]...), qe[4:]...)
	if _, res := s.DecodePtr(m, pt, mixed); res != PtrTorn {
		t.Errorf("mixed fragments decoded: %v", res)
	}
	// Out of order: torn.
	swapped := append([]Byte{}, pe...)
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if _, res := s.DecodePtr(m, pt, swapped); res != PtrTorn {
		t.Errorf("out-of-order fragments decoded: %v", res)
	}
	// One byte replaced by an unknown: indeterminate.
	withUnknown := append([]Byte{}, pe...)
	o, err := s.Alloc(ObjAuto, 1, "u", nil)
	if err != nil {
		t.Fatal(err)
	}
	withUnknown[3] = o.Data[0]
	if _, res := s.DecodePtr(m, pt, withUnknown); res != PtrIndeterminate {
		t.Errorf("unknown byte decoded: %v", res)
	}
}

func TestNullPtrEncoding(t *testing.T) {
	pt := ctypes.PointerTo(ctypes.TChar)
	null := Ptr{T: pt, Base: NullBase}
	s := NewStore()
	enc := encodePtr(t, s, null)
	for _, b := range enc {
		if c, ok := b.Octet(); !ok || c != 0 {
			t.Fatalf("null pointer encoding has non-zero byte %v", b)
		}
	}
	if s.PtrEntries() != 0 {
		t.Errorf("null pointer took %d table entries", s.PtrEntries())
	}
	got, res := s.DecodePtr(m, pt, enc)
	if res != PtrOK || !got.IsNull() {
		t.Errorf("null decode: %v %v", got, res)
	}
}

func TestForgedPtr(t *testing.T) {
	pt := ctypes.PointerTo(ctypes.TInt)
	forged := EncodeInt(m, ctypes.TULong, 0xdeadbeef)
	if _, res := NewStore().DecodePtr(m, pt, forged); res != PtrFromBytes {
		t.Errorf("forged pointer: %v", res)
	}
}

func TestIndeterminateRead(t *testing.T) {
	s := NewStore()
	o, err := s.Alloc(ObjAuto, 4, "x", ctypes.TInt)
	if err != nil {
		t.Fatal(err)
	}
	if _, res := DecodeInt(m, ctypes.TInt, o.Data); res != DecodeIndeterminate {
		t.Errorf("fresh object readable: %v", res)
	}
	o.Zero(0, 4)
	v, res := DecodeInt(m, ctypes.TInt, o.Data)
	if res != DecodeOK || v != 0 {
		t.Errorf("zeroed read: %d %v", v, res)
	}
}

func TestPointerBytesAsInt(t *testing.T) {
	p := Ptr{T: ctypes.PointerTo(ctypes.TInt), Base: 3, Off: 0}
	enc := encodePtr(t, NewStore(), p)
	if _, res := DecodeInt(m, ctypes.TULong, enc); res != DecodePointerBytes {
		t.Errorf("pointer bytes read as integer: %v", res)
	}
}

func TestStoreLifecycle(t *testing.T) {
	s := NewStore()
	o, err := s.Alloc(ObjHeap, 16, "malloc", nil)
	if err != nil {
		t.Fatal(err)
	}
	if !o.Live {
		t.Error("fresh object must be live")
	}
	if s.LiveBytes() != 16 {
		t.Errorf("live bytes = %d", s.LiveBytes())
	}
	s.Kill(o.ID)
	if o.Live {
		t.Error("killed object must be dead")
	}
	if s.LiveBytes() != 0 {
		t.Errorf("live bytes after kill = %d", s.LiveBytes())
	}
	// Dead objects are still findable (dangling diagnosis).
	if _, ok := s.Obj(o.ID); !ok {
		t.Error("dead object should remain identifiable")
	}
	// Double kill is a no-op.
	s.Kill(o.ID)
	if s.LiveBytes() != 0 {
		t.Error("double kill changed accounting")
	}
}

func TestNotWritable(t *testing.T) {
	s := NewStore()
	o, _ := s.Alloc(ObjStatic, 8, "c", nil)
	s.MarkNotWritable(o.ID, 0, 4)
	if !s.IsNotWritable(o.ID, 2, 2) {
		t.Error("const range not detected")
	}
	if s.IsNotWritable(o.ID, 4, 4) {
		t.Error("non-const range flagged")
	}
	if !s.IsNotWritable(o.ID, 3, 2) {
		t.Error("overlapping range not detected")
	}
}

func TestAllocLimits(t *testing.T) {
	s := NewStore()
	s.MaxBytes = 100
	if _, err := s.Alloc(ObjHeap, 101, "big", nil); err == nil {
		t.Error("expected limit error")
	}
	if _, err := s.Alloc(ObjHeap, -1, "neg", nil); err == nil {
		t.Error("expected error for negative size")
	}
}

func TestTruthiness(t *testing.T) {
	cases := []struct {
		v    Value
		want bool
		ok   bool
	}{
		{Int{T: ctypes.TInt, Bits: 0}, false, true},
		{Int{T: ctypes.TInt, Bits: 5}, true, true},
		{Float{T: ctypes.TDouble, F: 0}, false, true},
		{Float{T: ctypes.TDouble, F: 0.1}, true, true},
		{Ptr{T: ctypes.PointerTo(ctypes.TInt), Base: NullBase}, false, true},
		{Ptr{T: ctypes.PointerTo(ctypes.TInt), Base: 3}, true, true},
		{Void{}, false, false},
	}
	for _, c := range cases {
		got, ok := IsTruthy(c.v)
		if got != c.want || ok != c.ok {
			t.Errorf("IsTruthy(%v) = %v,%v", c.v, got, ok)
		}
	}
}

func TestUnknownBytesDistinct(t *testing.T) {
	s := NewStore()
	o, err := s.Alloc(ObjAuto, 2, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := o.Data[0], o.Data[1]
	if !a.IsUnknown() || !b.IsUnknown() || a == b {
		t.Error("unknown bytes must be distinguishable")
	}
}

func TestBytePacking(t *testing.T) {
	for _, c := range []struct {
		k   byteKind
		low uint8
		id  int64
	}{{kindConcrete, 0xff, 0}, {kindFrag, 7, 1<<40 + 3}, {kindUnknown, 0, idMask}, {kindUnknown, 0, 1}} {
		b := makeByte(c.k, c.low, c.id)
		if b.kind() != c.k || b.low() != c.low || b.id() != c.id {
			t.Errorf("makeByte(%d, %d, %d) reads back %d, %d, %d", c.k, c.low, c.id, b.kind(), b.low(), b.id())
		}
	}
}

// encodePtr encodes p through s's pointer table.
func encodePtr(t *testing.T, s *Store, p Ptr) []Byte {
	t.Helper()
	enc, err := s.AppendPtr(nil, m, p)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestByteIsSmallAndPointerFree: a byte is a one-word value with no Go
// pointers, its zero value is the concrete octet 0, and its fields
// survive packing.
func TestByteIsSmallAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Byte{}); n > 8 {
		t.Errorf("Byte is %d bytes, want at most 8", n)
	}
	if c, ok := (Byte{}).Octet(); !ok || c != 0 {
		t.Error("the zero Byte is not the concrete octet 0")
	}
	bt := reflect.TypeOf(Byte{})
	for i := 0; i < bt.NumField(); i++ {
		switch k := bt.Field(i).Type.Kind(); k {
		case reflect.Uint64:
		default:
			t.Errorf("Byte field %s is a %s, not a plain integer", bt.Field(i).Name, k)
		}
	}
}

// TestPtrFragInline: pointers into and just past objects name their
// address in the fragment itself, so storing them, however many, adds no
// table entry; pointers that differ only in type have one representation.
func TestPtrFragInline(t *testing.T) {
	ip, cp := ctypes.PointerTo(ctypes.TInt), ctypes.PointerTo(ctypes.TChar)
	s := NewStore()
	for _, base := range []ObjID{InvalidBase, 1, 7, 1<<fragBaseBits - 2} {
		for _, off := range []int64{0, 1, 100_000, 1<<fragOffBits - 1} {
			p := Ptr{T: ip, Base: base, Off: off}
			enc := encodePtr(t, s, p)
			if got, res := s.DecodePtr(m, ip, enc); res != PtrOK || got != p {
				t.Fatalf("decode %v: %v %v", p, got, res)
			}
			if other := encodePtr(t, s, Ptr{T: cp, Base: base, Off: off}); other[0] != enc[0] {
				t.Fatalf("%v is represented differently as a char pointer", p)
			}
		}
	}
	if s.PtrEntries() != 0 {
		t.Errorf("%d table entries for pointers that fit inline", s.PtrEntries())
	}
}

// TestPtrTableOneEntryPerPointer: an address that does not fit inline
// gets one table entry, however often, in whatever order and with
// whatever type it is stored.
func TestPtrTableOneEntryPerPointer(t *testing.T) {
	s := NewStore()
	first := map[Ptr]Byte{}
	for round := 0; round < 3; round++ {
		for off := int64(0); off < 100; off++ {
			for _, ty := range []*ctypes.Type{ctypes.PointerTo(ctypes.TInt), ctypes.PointerTo(ctypes.TChar)} {
				addr := Ptr{Base: InvalidBase, Off: 1<<40 + off}
				if off%2 == 1 {
					addr = Ptr{Base: 3, Off: -off}
				}
				p := addr
				p.T = ty
				enc := encodePtr(t, s, p)
				if b, ok := first[addr]; ok && b != enc[0] {
					t.Fatalf("%v changed table entry on round %d", p, round)
				}
				first[addr] = enc[0]
				if got, res := s.DecodePtr(m, ty, enc); res != PtrOK || got != p {
					t.Fatalf("decode %v: %v %v", p, got, res)
				}
			}
		}
	}
	if s.PtrEntries() != len(first) {
		t.Errorf("%d table entries for %d distinct addresses", s.PtrEntries(), len(first))
	}
}

// TestPtrTableCountsAgainstLimit: table entries count against MaxBytes,
// so storing ever new out-of-line pointers ends in ErrLimit.
func TestPtrTableCountsAgainstLimit(t *testing.T) {
	pt := ctypes.PointerTo(ctypes.TInt)
	s := NewStore()
	s.MaxBytes = 1000
	var err error
	for off := int64(0); off < 1000 && err == nil; off++ {
		_, err = s.AppendPtr(nil, m, Ptr{T: pt, Base: InvalidBase, Off: 1<<40 + off})
	}
	if err != ErrLimit {
		t.Fatalf("storing 1000 distinct pointers under a 1000-byte limit: %v, want ErrLimit", err)
	}
	if _, err := s.Alloc(ObjHeap, 1000-int64(s.PtrEntries())*ptrEntryBytes+1, "x", nil); err != ErrLimit {
		t.Errorf("allocation past the table's share of the limit: %v, want ErrLimit", err)
	}
}

// TestSlabAndArena: objects carved from shared chunks stay independent.
func TestSlabAndArena(t *testing.T) {
	s := NewStore()
	var objs []*Object
	for i := 0; i < 200; i++ {
		o, err := s.Alloc(ObjAuto, int64(i%70), "x", nil)
		if err != nil {
			t.Fatal(err)
		}
		o.Zero(0, o.Size)
		objs = append(objs, o)
	}
	for i, o := range objs {
		if got, _ := s.Obj(o.ID); got != o || int64(len(o.Data)) != o.Size || int64(cap(o.Data)) != o.Size {
			t.Fatalf("object %d: lookup %p vs %p, len %d cap %d size %d", i, got, o, len(o.Data), cap(o.Data), o.Size)
		}
		for j := range o.Data {
			o.Data[j] = Concrete(uint8(i))
		}
	}
	for i, o := range objs {
		for _, b := range o.Data {
			if c, _ := b.Octet(); c != uint8(i) {
				t.Fatalf("object %d's bytes were overwritten by a neighbor", i)
			}
		}
	}
}
