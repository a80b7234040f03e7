// Package mem implements the symbolic memory model of the paper's §4.3 and
// the runtime values that inhabit it.
//
// Pointers are symbolic base/offset pairs sym(B)+O — never raw integers —
// so relational comparison of pointers into different objects has no
// semantics (§4.3.1). Memory is a map from object bases to byte arrays;
// a byte is either a concrete octet, a pointer fragment subObject(p, i)
// (§4.3.2), or an indeterminate unknown byte (§4.3.3).
//
// A Byte is a small tagged union with no Go pointers in it, so object
// data costs 8 bytes per C byte and the garbage collector never scans
// it. A pointer fragment names its pointer's base and offset inline;
// only an address too large for that (a pointer forged from a big
// integer) is named by an entry in the owning Store's pointer table.
// Fragments are therefore only meaningful to the Store that made them,
// and pointer encoding, decoding, concretization and the state digest are
// Store methods.
package mem

import (
	"fmt"
	"math"

	"repro/internal/ctypes"
)

// ObjID identifies an allocated object (the paper's base address B).
type ObjID int64

// NullBase is the base of the null pointer.
const NullBase ObjID = 0

// InvalidBase marks pointers forged from integers (provenance lost).
const InvalidBase ObjID = -1

// Value is a C runtime value.
type Value interface {
	// CType returns the value's C type.
	CType() *ctypes.Type
	isValue()
}

// Int is an integer value. Bits holds the canonical 64-bit representation:
// sign-extended two's complement for signed types, zero-extended otherwise
// (see ctypes.Model.Wrap).
type Int struct {
	T    *ctypes.Type
	Bits uint64
}

// CType implements Value.
func (v Int) CType() *ctypes.Type { return v.T }
func (v Int) isValue()            {}

// Signed returns the value interpreted as signed.
func (v Int) Signed() int64 { return int64(v.Bits) }

func (v Int) String() string { return fmt.Sprintf("%d:%s", int64(v.Bits), v.T) }

// MakeInt wraps raw into t's range under m and returns the Int.
func MakeInt(m *ctypes.Model, t *ctypes.Type, raw uint64) Int {
	return Int{T: t, Bits: m.Wrap(t, raw)}
}

// Pre-boxed small values of the canonical arithmetic types. Value
// computations produce Value interfaces, and without this table every 0,
// 1, truth value, and small loop counter boxes a fresh heap allocation —
// the dominant allocation source in interpreter hot loops.
var (
	boxedInt   [256]Value
	boxedUInt  [256]Value
	boxedChar  [256]Value
	boxedLong  [256]Value
	boxedULong [256]Value
)

func init() {
	for i := range boxedInt {
		boxedInt[i] = Int{T: ctypes.TInt, Bits: uint64(i)}
		boxedUInt[i] = Int{T: ctypes.TUInt, Bits: uint64(i)}
		boxedChar[i] = Int{T: ctypes.TChar, Bits: uint64(i)}
		boxedLong[i] = Int{T: ctypes.TLong, Bits: uint64(i)}
		boxedULong[i] = Int{T: ctypes.TULong, Bits: uint64(i)}
	}
}

// BoxInt returns Int{T: t, Bits: bits} as a Value, sharing pre-boxed
// storage for small values of the canonical unqualified types. bits must
// already be wrapped to t's width (pair with Model.Wrap, as MakeInt does).
// Sharing is safe because values are immutable.
func BoxInt(t *ctypes.Type, bits uint64) Value {
	if bits < 256 {
		switch t {
		case ctypes.TInt:
			return boxedInt[bits]
		case ctypes.TUInt:
			return boxedUInt[bits]
		case ctypes.TChar:
			return boxedChar[bits]
		case ctypes.TLong:
			return boxedLong[bits]
		case ctypes.TULong:
			return boxedULong[bits]
		}
	}
	return Int{T: t, Bits: bits}
}

// Float is a real floating value.
type Float struct {
	T *ctypes.Type
	F float64
}

// CType implements Value.
func (v Float) CType() *ctypes.Type { return v.T }
func (v Float) isValue()            {}

func (v Float) String() string { return fmt.Sprintf("%g:%s", v.F, v.T) }

// Ptr is a symbolic pointer sym(Base)+Off of pointer type T.
// Base == NullBase is the null pointer; Base == InvalidBase is a pointer
// whose provenance was destroyed (e.g. conjured from an integer).
type Ptr struct {
	T    *ctypes.Type // the pointer type (Ptr kind), not the pointee
	Base ObjID
	Off  int64
}

// CType implements Value.
func (v Ptr) CType() *ctypes.Type { return v.T }
func (v Ptr) isValue()            {}

// IsNull reports whether v is a null pointer.
func (v Ptr) IsNull() bool { return v.Base == NullBase }

// SynthAddr gives the pointer a stable integer rendering for ptr→int
// casts, %p and arithmetic reads of its fragments. The mapping is
// deliberately not invertible into provenance.
func (v Ptr) SynthAddr() uint64 {
	if v.IsNull() {
		return 0
	}
	return 0x10000000 + uint64(v.Base)<<16 + uint64(v.Off)
}

func (v Ptr) String() string {
	if v.IsNull() {
		return "NULL:" + v.T.String()
	}
	return fmt.Sprintf("sym(%d)+%d:%s", v.Base, v.Off, v.T)
}

// Bytes is an aggregate (struct/union/array) rvalue: its object
// representation.
type Bytes struct {
	T    *ctypes.Type
	Data []Byte
}

// CType implements Value.
func (v Bytes) CType() *ctypes.Type { return v.T }
func (v Bytes) isValue()            {}

// RawByte is the value read through a character lvalue from a byte that is
// not a concrete octet (a pointer fragment or an indeterminate byte). It
// can be copied but not used in arithmetic — the paper's §4.3.2/§4.3.3
// mechanism for byte-wise copying of pointers and indeterminate memory.
type RawByte struct {
	T *ctypes.Type
	B Byte
}

// CType implements Value.
func (v RawByte) CType() *ctypes.Type { return v.T }
func (v RawByte) isValue()            {}

// NoReturn is the "value" of a call to a function that fell off its end (or
// executed `return;`) while having a non-void return type. Using it is UB
// (C11 §6.9.1:12); discarding it is fine.
type NoReturn struct{ T *ctypes.Type }

// CType implements Value.
func (v NoReturn) CType() *ctypes.Type { return v.T }
func (v NoReturn) isValue()            {}

// Void is the value of a void expression — it has no value; any use is UB
// (C11 §6.3.2.2).
type Void struct{}

// CType implements Value.
func (Void) CType() *ctypes.Type { return ctypes.TVoid }
func (Void) isValue()            {}

// IsTruthy reports whether a scalar value compares unequal to zero.
// The second result is false when the value has no truth value (unknown,
// void, aggregate).
func IsTruthy(v Value) (bool, bool) {
	switch v := v.(type) {
	case Int:
		return v.Bits != 0, true
	case Float:
		return v.F != 0, true
	case Ptr:
		return !v.IsNull(), true
	}
	return false, false
}

// ---------- bytes ----------

// Byte is one byte of the object representation: a concrete octet, a
// pointer fragment subObject(p, i), or an indeterminate unknown(N). It is
// one word: the kind in the top two bits, an identity in the bits below
// them (the unknown's, or the address of the fragment's pointer) and, in
// the low eight bits, the octet or the fragment's index within its
// pointer.
// The zero Byte is the concrete octet 0.
type Byte struct{ w uint64 }

type byteKind uint8

const (
	kindConcrete byteKind = iota
	kindFrag
	kindUnknown
)

const (
	kindShift = 62
	idShift   = 8
	idMask    = 1<<(kindShift-idShift) - 1
)

func makeByte(k byteKind, low uint8, id int64) Byte {
	return Byte{uint64(k)<<kindShift | uint64(id)&idMask<<idShift | uint64(low)}
}

func (b Byte) kind() byteKind { return byteKind(b.w >> kindShift) }
func (b Byte) low() uint8     { return uint8(b.w) }
func (b Byte) id() int64      { return int64(b.w >> idShift & idMask) }

// Concrete returns the ordinary octet b.
func Concrete(b uint8) Byte { return Byte{uint64(b)} }

// Octet returns the byte's value and true if it is a concrete octet.
func (b Byte) Octet() (uint8, bool) { return b.low(), b.kind() == kindConcrete }

// IsUnknown reports whether b is indeterminate — the paper's unknown(N).
func (b Byte) IsUnknown() bool { return b.kind() == kindUnknown }

// ---------- encoding ----------

// EncodeInt renders an integer value as size little-endian concrete bytes.
func EncodeInt(m *ctypes.Model, t *ctypes.Type, bits uint64) []Byte {
	return AppendInt(nil, m, t, bits)
}

// AppendInt appends the little-endian encoding of an integer of type t to
// buf and returns the extended slice. The allocation-free sibling of
// EncodeInt for hot store paths that reuse a scratch buffer.
func AppendInt(buf []Byte, m *ctypes.Model, t *ctypes.Type, bits uint64) []Byte {
	n := m.Size(t)
	for i := int64(0); i < n; i++ {
		buf = append(buf, Concrete(uint8(bits>>(8*i))))
	}
	return buf
}

// DecodeIntResult describes why a decode failed.
type DecodeIntResult int

// Decode outcomes.
const (
	DecodeOK            DecodeIntResult = iota
	DecodeIndeterminate                 // contains unknown bytes
	DecodePointerBytes                  // contains pointer fragments
)

// DecodeInt reads size little-endian bytes as an integer of type t.
func DecodeInt(m *ctypes.Model, t *ctypes.Type, data []Byte) (uint64, DecodeIntResult) {
	var bits uint64
	for i, b := range data {
		switch b.kind() {
		case kindConcrete:
			bits |= uint64(b.low()) << (8 * i)
		case kindUnknown:
			return 0, DecodeIndeterminate
		default:
			return 0, DecodePointerBytes
		}
	}
	return m.Wrap(t, bits), DecodeOK
}

// EncodeFloat renders a floating value as concrete bytes.
func EncodeFloat(m *ctypes.Model, t *ctypes.Type, f float64) []Byte {
	return AppendFloat(nil, m, t, f)
}

// AppendFloat is the allocation-free sibling of EncodeFloat.
func AppendFloat(buf []Byte, m *ctypes.Model, t *ctypes.Type, f float64) []Byte {
	switch n := m.Size(t); n {
	case 4:
		return AppendInt(buf, m, ctypes.TUInt, uint64(math.Float32bits(float32(f))))
	default:
		start := len(buf)
		buf = AppendInt(buf, m, ctypes.TULongLong, math.Float64bits(f))
		// long double: pad to the model's size with zero bytes.
		for int64(len(buf)-start) < n {
			buf = append(buf, Concrete(0))
		}
		return buf
	}
}

// DecodeFloat reads bytes as a floating value of type t.
func DecodeFloat(m *ctypes.Model, t *ctypes.Type, data []Byte) (float64, DecodeIntResult) {
	switch m.Size(t) {
	case 4:
		bits, res := DecodeInt(m, ctypes.TUInt, data)
		if res != DecodeOK {
			return 0, res
		}
		return float64(math.Float32frombits(uint32(bits))), DecodeOK
	default:
		bits, res := DecodeInt(m, ctypes.TULongLong, data[:8])
		if res != DecodeOK {
			return 0, res
		}
		for _, b := range data[8:] {
			if b.kind() != kindConcrete {
				return 0, DecodeIndeterminate
			}
		}
		return math.Float64frombits(bits), DecodeOK
	}
}

// DecodePtrResult describes the outcome of reassembling a pointer.
type DecodePtrResult int

// Pointer decode outcomes.
const (
	PtrOK            DecodePtrResult = iota
	PtrIndeterminate                 // unknown bytes present
	PtrFromBytes                     // arbitrary concrete bytes (forged pointer)
	PtrTorn                          // fragments of different pointers, or out of order
)
