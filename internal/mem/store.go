package mem

import (
	"fmt"
	"math"
	"slices"
	"unsafe"

	"repro/internal/ctypes"
)

// ObjKind classifies an object's storage duration and provenance.
type ObjKind uint8

// Object kinds.
const (
	ObjStatic ObjKind = iota // file-scope and static-local objects
	ObjAuto                  // block-scope automatic objects
	ObjHeap                  // malloc/calloc/realloc results
	ObjFunc                  // function designators
	ObjString                // string literals
)

func (k ObjKind) String() string {
	switch k {
	case ObjStatic:
		return "static"
	case ObjAuto:
		return "auto"
	case ObjHeap:
		return "heap"
	case ObjFunc:
		return "function"
	case ObjString:
		return "string literal"
	}
	return "object"
}

// Object is one allocated object: the memory cell entry B ↦ obj(Len, bytes).
type Object struct {
	ID   ObjID
	Size int64
	Data []Byte
	Kind ObjKind

	// Live is false once the object's lifetime has ended (scope exit,
	// free); the bytes are retained so dangling uses can be diagnosed.
	Live bool

	// Name is the declared name (diagnostics); for ObjFunc, the
	// designated function.
	Name string

	// DeclType is the object's declared/effective type (for the
	// strict-aliasing check, C11 §6.5:7); nil for heap objects until a
	// value is stored (we then leave it nil — heap memory takes the type
	// of what is stored per access, checked shallowly).
	DeclType *ctypes.Type
}

// Loc is one byte location (the elements of locsWrittenTo / notWritable).
type Loc struct {
	Obj ObjID
	Off int64
}

// Store is the memory: a map from base addresses to objects, plus the
// notWritable set of const locations (paper §4.2.2). Base addresses are
// allocated densely from 1, so the "map" is a slice indexed by ObjID-1 —
// every load and store resolves its object with one bounds check instead
// of a hash lookup.
//
// Objects are carved from a slab and small objects' bytes from a chunked
// arena, both owned by the store, so an allocation rarely reaches the Go
// heap. The pointer table holds the few stored addresses that a pointer
// fragment cannot name inline (see fragID).
type Store struct {
	objs        []*Object // objs[id-1] is the object with base id
	unknownSeq  int64
	notWritable map[Loc]struct{} // nil until the first const object

	slab      []Object // unused tail of the current object slab
	arena     []Byte   // unused tail of the current data chunk
	arenaSize int      // size of the current data chunk

	// ptrs is the pointer table: the addresses whose fragments cannot
	// hold them inline (see fragID), one entry each. ptrIndex is an
	// open-addressed hash index over it (1+entry, 0 = empty slot), kept
	// at most half full, that finds an address's existing entry. Both
	// stay nil in a run that stores no such pointer.
	ptrs     []Ptr
	ptrIndex []int32

	// Limits (failure injection / runaway guards). MaxBytes bounds the
	// live objects' bytes plus the pointer table's.
	MaxObjects int
	MaxBytes   int64
	liveBytes  int64

	// kills counts lifetime terminations (monotonic, never reset). The
	// search driver's partial-order reduction snapshots it around operand
	// evaluation: frame teardown and free() don't emit observer events, so
	// a counter delta is how an operand that ends lifetimes is detected.
	kills int64
}

// Slab and arena sizing. Slabs and chunks grow with the store, so a
// short run pays for a few objects and bytes, not hundreds. Objects of at
// most arenaObjMax bytes share arena chunks; larger ones get their own
// slice.
const (
	slabMin       = 8
	slabMax       = 256
	arenaChunkMin = 64
	arenaChunkMax = 1024
	arenaObjMax   = 64
	ptrIndexMin   = 32
)

// ptrEntryBytes is what one pointer-table entry counts against MaxBytes:
// its size in memory, with its share of the index.
const ptrEntryBytes = int64(unsafe.Sizeof(Ptr{}) + 2*unsafe.Sizeof(int32(0)))

// NewStore returns an empty memory.
func NewStore() *Store {
	return &Store{
		MaxObjects: 1 << 20,
		MaxBytes:   1 << 24, // 16 MiB of C bytes (8 bytes of Go memory each)
	}
}

// ErrLimit is returned when an allocation exceeds the store's limits.
var ErrLimit = fmt.Errorf("memory limit exceeded")

// usedBytes is what counts against MaxBytes.
func (s *Store) usedBytes() int64 { return s.liveBytes + int64(len(s.ptrs))*ptrEntryBytes }

// Alloc creates a new live object of size bytes, all indeterminate.
func (s *Store) Alloc(kind ObjKind, size int64, name string, declType *ctypes.Type) (*Object, error) {
	if len(s.objs) >= s.MaxObjects || s.usedBytes()+size > s.MaxBytes || size < 0 {
		return nil, ErrLimit
	}
	// The slab slot is zero: set only what differs, field by field, so no
	// whole-struct copy runs the GC's bulk write barrier.
	o := s.newObject()
	o.ID = ObjID(len(s.objs) + 1)
	o.Kind = kind
	o.Size = size
	o.Data = s.carve(size)
	o.Live = true
	o.Name = name
	o.DeclType = declType
	for i := range o.Data {
		s.unknownSeq++
		o.Data[i] = makeByte(kindUnknown, 0, s.unknownSeq)
	}
	s.objs = append(s.objs, o)
	s.liveBytes += size
	return o, nil
}

// AllocFunc creates the designator object for a function.
func (s *Store) AllocFunc(name string) *Object {
	o := s.newObject()
	o.ID = ObjID(len(s.objs) + 1)
	o.Kind = ObjFunc
	o.Live = true
	o.Name = name
	s.objs = append(s.objs, o)
	return o
}

// newObject hands out the next slot of the object slab. A new slab also
// makes room in objs for all of its objects; objs at least doubles when it
// grows, so a long run copies it rarely.
func (s *Store) newObject() *Object {
	if len(s.slab) == 0 {
		n := min(max(len(s.objs), slabMin), slabMax)
		s.slab = make([]Object, n)
		if cap(s.objs) < len(s.objs)+n {
			s.objs = slices.Grow(s.objs, max(n, len(s.objs)))
		}
	}
	o := &s.slab[0]
	s.slab = s.slab[1:]
	return o
}

// carve returns n zero (concrete 0) bytes for a new object. The slice is
// capped at n, so no append can reach a neighbor's bytes.
func (s *Store) carve(n int64) []Byte {
	if n > arenaObjMax {
		return make([]Byte, n)
	}
	if int64(len(s.arena)) < n {
		s.arenaSize = min(max(2*s.arenaSize, arenaChunkMin), arenaChunkMax)
		s.arena = make([]Byte, s.arenaSize)
	}
	d := s.arena[:n:n]
	s.arena = s.arena[n:]
	return d
}

// Obj looks up an object by base. It returns objects whose lifetime has
// ended too — callers decide whether that is an error.
func (s *Store) Obj(id ObjID) (*Object, bool) {
	if id < 1 || int64(id) > int64(len(s.objs)) {
		return nil, false
	}
	return s.objs[id-1], true
}

// Kill ends an object's lifetime, retaining its identity for dangling-use
// diagnosis.
func (s *Store) Kill(id ObjID) {
	if o, ok := s.Obj(id); ok && o.Live {
		o.Live = false
		s.liveBytes -= o.Size
		s.kills++
	}
}

// Zero fills [off, off+n) with concrete zero bytes.
func (o *Object) Zero(off, n int64) {
	if off < o.Size {
		clear(o.Data[off:min(off+n, o.Size)])
	}
}

// MarkNotWritable records [off, off+n) of obj as const (paper §4.2.2).
func (s *Store) MarkNotWritable(obj ObjID, off, n int64) {
	if s.notWritable == nil {
		s.notWritable = make(map[Loc]struct{})
	}
	for i := off; i < off+n; i++ {
		s.notWritable[Loc{Obj: obj, Off: i}] = struct{}{}
	}
}

// IsNotWritable reports whether any byte of [off, off+n) is const.
func (s *Store) IsNotWritable(obj ObjID, off, n int64) bool {
	if len(s.notWritable) == 0 {
		return false // no const object exists: skip the per-byte lookups
	}
	for i := off; i < off+n; i++ {
		if _, ok := s.notWritable[Loc{Obj: obj, Off: i}]; ok {
			return true
		}
	}
	return false
}

// NumObjects reports how many objects (live or dead) the store tracks.
func (s *Store) NumObjects() int { return len(s.objs) }

// PtrEntries reports the size of the pointer table.
func (s *Store) PtrEntries() int { return len(s.ptrs) }

// LiveBytes reports the total size of live objects.
func (s *Store) LiveBytes() int64 { return s.liveBytes }

// Kills reports how many object lifetimes have ended so far.
func (s *Store) Kills() int64 { return s.kills }

// ---------- pointer fragments ----------

// A fragment's identity names its pointer's address: the base and offset
// themselves when they fit, which they do for every pointer into or one
// past an object under the default limits, and otherwise (a pointer
// forged from a large integer, or one far outside its object) fragTable
// plus the address's pointer-table entry. Equal addresses get equal
// identities either way, so the fragments of one pointer are recognized
// by comparing identities, and pointer walks over any object add nothing
// to the table. The pointer's type is not part of its representation.
const (
	fragOffBits  = 28 // offsets 0 .. 2^28-1
	fragBaseBits = 25 // bases -1 .. 2^25-2, stored plus one
	fragTable    = 1 << (fragOffBits + fragBaseBits)
)

// AppendPtr appends the representation of p to buf: its fragments, the
// paper's subObject(p, i) bytes. A null pointer is encoded as all-zero
// concrete bytes so that memset(&p, 0, sizeof p) produces a null pointer,
// as on real hardware. An address that needs a pointer-table entry gets
// it the first time it is stored; a table grown past MaxBytes yields
// ErrLimit.
func (s *Store) AppendPtr(buf []Byte, m *ctypes.Model, p Ptr) ([]Byte, error) {
	n := int(m.SizePtr)
	if p.IsNull() {
		for i := 0; i < n; i++ {
			buf = append(buf, Concrete(0))
		}
		return buf, nil
	}
	id, err := s.fragID(p)
	if err != nil {
		return buf, err
	}
	for i := 0; i < n; i++ {
		buf = append(buf, makeByte(kindFrag, uint8(i), id))
	}
	return buf, nil
}

// fragID returns the identity of p's fragments.
func (s *Store) fragID(p Ptr) (int64, error) {
	if b := int64(p.Base) + 1; b >= 0 && b < 1<<fragBaseBits && p.Off >= 0 && p.Off < 1<<fragOffBits {
		return b<<fragOffBits | p.Off, nil
	}
	e, err := s.ptrEntry(Ptr{Base: p.Base, Off: p.Off})
	return fragTable | e, err
}

// fragPtr returns the address a fragment identity names, with no type.
func (s *Store) fragPtr(id int64) Ptr {
	if id&fragTable != 0 {
		return s.ptrs[id&^fragTable]
	}
	return Ptr{Base: ObjID(id>>fragOffBits - 1), Off: id & (1<<fragOffBits - 1)}
}

// ptrEntry returns p's pointer-table index, adding an entry for a pointer
// not stored before.
func (s *Store) ptrEntry(p Ptr) (int64, error) {
	if 2*len(s.ptrs) >= len(s.ptrIndex) {
		s.growPtrIndex()
	}
	mask := uint64(len(s.ptrIndex) - 1)
	for i := ptrHash(p) & mask; ; i = (i + 1) & mask {
		e := s.ptrIndex[i]
		if e == 0 {
			if s.usedBytes()+ptrEntryBytes > s.MaxBytes || len(s.ptrs) >= math.MaxInt32 {
				return 0, ErrLimit
			}
			s.ptrs = append(s.ptrs, p)
			s.ptrIndex[i] = int32(len(s.ptrs))
			return int64(len(s.ptrs) - 1), nil
		}
		if s.ptrs[e-1] == p {
			return int64(e - 1), nil
		}
	}
}

// growPtrIndex doubles the pointer index (ptrIndexMin slots at first)
// and re-inserts every entry.
func (s *Store) growPtrIndex() {
	if s.ptrIndex == nil {
		s.ptrs = make([]Ptr, 0, ptrIndexMin/2)
	}
	s.ptrIndex = make([]int32, max(ptrIndexMin, 2*len(s.ptrIndex)))
	mask := uint64(len(s.ptrIndex) - 1)
	for e, p := range s.ptrs {
		i := ptrHash(p) & mask
		for s.ptrIndex[i] != 0 {
			i = (i + 1) & mask
		}
		s.ptrIndex[i] = int32(e + 1)
	}
}

// ptrHash hashes a pointer's base and offset.
func ptrHash(p Ptr) uint64 { return HashMix(HashMix(HashSeed, uint64(p.Base)), uint64(p.Off)) }

// Frag resolves a pointer fragment to its pointer's address (with no
// type) and its index within the pointer's representation; ok is false
// for any other byte.
func (s *Store) Frag(b Byte) (p Ptr, idx int, ok bool) {
	if b.kind() != kindFrag {
		return Ptr{}, 0, false
	}
	return s.fragPtr(b.id()), int(b.low()), true
}

// DecodePtr reassembles a pointer of type t from its bytes. Only a complete,
// in-order set of fragments of a single pointer yields the pointer back
// (§4.3.2: "this allows the reconstruction of the original pointer, but
// only if given all the bytes"). Fragments belong to the same pointer when
// they name the same address, whatever the types the pointers were stored
// with. All-zero concrete bytes yield null.
func (s *Store) DecodePtr(m *ctypes.Model, t *ctypes.Type, data []Byte) (Ptr, DecodePtrResult) {
	if len(data) == 0 {
		return Ptr{}, PtrTorn
	}
	if first := data[0]; first.kind() == kindFrag {
		for i, b := range data {
			if b.kind() == kindUnknown {
				return Ptr{}, PtrIndeterminate
			}
			if b.kind() != kindFrag || int(b.low()) != i || b.id() != first.id() {
				return Ptr{}, PtrTorn
			}
		}
		p := s.fragPtr(first.id())
		p.T = t
		return p, PtrOK
	}
	allZero := true
	for _, b := range data {
		switch b.kind() {
		case kindConcrete:
			if b.low() != 0 {
				allZero = false
			}
		case kindUnknown:
			return Ptr{}, PtrIndeterminate
		default:
			return Ptr{}, PtrTorn
		}
	}
	if allZero {
		return Ptr{T: t, Base: NullBase}, PtrOK
	}
	return Ptr{}, PtrFromBytes
}

// Concretize renders data as the concrete octets a real execution would
// see: pointer fragments become bytes of their pointer's synthetic
// address, indeterminate bytes become zero. exposed counts the fragments
// of pointers into objects, each of which made an allocation-order
// dependent address visible.
func (s *Store) Concretize(data []Byte) (out []Byte, exposed int) {
	out = make([]Byte, len(data))
	for i, b := range data {
		switch b.kind() {
		case kindConcrete:
			out[i] = b
		case kindFrag:
			p := s.fragPtr(b.id())
			if p.Base > NullBase {
				exposed++
			}
			out[i] = Concrete(uint8(p.SynthAddr() >> (8 * uint(b.low()))))
		}
	}
	return out, exposed
}
