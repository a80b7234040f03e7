package ctypes

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Model captures the implementation-defined parameters of a C implementation
// (C11 §3.19.1, §6.2.5). The paper's §2.5.1 shows that whether a program is
// undefined can depend on these choices, so the checker takes a Model as
// input rather than hard-coding one.
type Model struct {
	Name string

	// Sizes in bytes.
	SizeShort, SizeInt, SizeLong, SizeLongLong int64
	SizePtr                                    int64
	SizeFloat, SizeDouble, SizeLongDouble      int64
	SizeBool                                   int64

	// CharSigned reports whether plain char behaves as signed char.
	CharSigned bool

	// MaxAlign caps alignment (every basic type is aligned to min(size,
	// MaxAlign)).
	MaxAlign int64
}

// LP64 is the common 64-bit Unix model (the paper's experiments ran on
// x86_64): int 4, long 8, pointers 8, char signed.
func LP64() *Model {
	return &Model{
		Name:      "LP64",
		SizeShort: 2, SizeInt: 4, SizeLong: 8, SizeLongLong: 8,
		SizePtr:   8,
		SizeFloat: 4, SizeDouble: 8, SizeLongDouble: 16,
		SizeBool:   1,
		CharSigned: true,
		MaxAlign:   16,
	}
}

// ILP32 is the common 32-bit model: int 4, long 4, pointers 4.
func ILP32() *Model {
	return &Model{
		Name:      "ILP32",
		SizeShort: 2, SizeInt: 4, SizeLong: 4, SizeLongLong: 8,
		SizePtr:   4,
		SizeFloat: 4, SizeDouble: 8, SizeLongDouble: 12,
		SizeBool:   1,
		CharSigned: true,
		MaxAlign:   8,
	}
}

// Int8 is a deliberately exotic model with 8-byte ints, used to demonstrate
// the paper's §2.5.1: `int *p = malloc(4); *p = 1000;` is defined under LP64
// but undefined here.
func Int8() *Model {
	return &Model{
		Name:      "INT8",
		SizeShort: 2, SizeInt: 8, SizeLong: 8, SizeLongLong: 8,
		SizePtr:   8,
		SizeFloat: 4, SizeDouble: 8, SizeLongDouble: 16,
		SizeBool:   1,
		CharSigned: true,
		MaxAlign:   16,
	}
}

// ModelFor resolves a model name, case-insensitively: "" and "LP64" name
// LP64, "ILP32" and "INT8" the other two. Every surface that accepts a
// model name (kcc, the server, the cluster router) parses it here, so they
// agree on the source-identity hash the compile caches key on.
func ModelFor(name string) (*Model, error) {
	switch strings.ToUpper(name) {
	case "", "LP64":
		return LP64(), nil
	case "ILP32":
		return ILP32(), nil
	case "INT8":
		return Int8(), nil
	}
	return nil, fmt.Errorf("unknown model %q (want LP64, ILP32, or INT8)", name)
}

// ErrTooLarge reports an object type whose size in bytes does not fit in
// an int64 (gcc: "size of array is too large").
var ErrTooLarge = errors.New("size is too large")

// SizeOf returns the size of t in bytes under m, or an error for
// incomplete and non-object types — including aggregates whose members are
// unsizeable (e.g. a struct with a flexible array member, which
// IsComplete does not see through). This is the form for callers handling
// user input; Size is the invariant-asserting form for checked programs.
func (m *Model) SizeOf(t *Type) (int64, error) {
	switch t.Kind {
	case Bool:
		return m.SizeBool, nil
	case Char, SChar, UChar:
		return 1, nil
	case Short, UShort:
		return m.SizeShort, nil
	case Int, UInt, Enum:
		return m.SizeInt, nil
	case Long, ULong:
		return m.SizeLong, nil
	case LongLong, ULongLong:
		return m.SizeLongLong, nil
	case Float:
		return m.SizeFloat, nil
	case Double:
		return m.SizeDouble, nil
	case LongDouble:
		return m.SizeLongDouble, nil
	case Ptr:
		return m.SizePtr, nil
	case Array:
		if t.ArrayLen < 0 {
			return 0, fmt.Errorf("size of incomplete array type %s", t)
		}
		es, err := m.SizeOf(t.Elem)
		if err != nil {
			return 0, err
		}
		if es > 0 && t.ArrayLen > math.MaxInt64/es {
			return 0, fmt.Errorf("array type %s: %w", t, ErrTooLarge)
		}
		return t.ArrayLen * es, nil
	case Struct, Union:
		if err := m.LayoutOf(t); err != nil {
			return 0, err
		}
		return t.size, nil
	}
	return 0, fmt.Errorf("size of non-object type %s", t)
}

// Size returns the size of t in bytes under m. It panics for unsizeable
// types; callers must validate first (the type checker guarantees this for
// checked programs) or use SizeOf to handle the error.
func (m *Model) Size(t *Type) int64 {
	n, err := m.SizeOf(t)
	if err != nil {
		panic("ctypes: " + err.Error())
	}
	return n
}

// AlignOf returns the alignment requirement of t in bytes under m, or an
// error for unsizeable types.
func (m *Model) AlignOf(t *Type) (int64, error) {
	switch t.Kind {
	case Array:
		return m.AlignOf(t.Elem)
	case Struct, Union:
		if err := m.LayoutOf(t); err != nil {
			return 0, err
		}
		return t.align, nil
	default:
		s, err := m.SizeOf(t)
		if err != nil {
			return 0, err
		}
		if s > m.MaxAlign {
			return m.MaxAlign, nil
		}
		if s == 0 {
			return 1, nil
		}
		// Round down to a power of two (e.g. 12-byte long double aligns 4).
		a := int64(1)
		for a*2 <= s {
			a *= 2
		}
		return a, nil
	}
}

// Align returns the alignment requirement of t in bytes under m, panicking
// for unsizeable types (see Size).
func (m *Model) Align(t *Type) int64 {
	a, err := m.AlignOf(t)
	if err != nil {
		panic("ctypes: " + err.Error())
	}
	return a
}

// LayoutOf computes and caches struct/union member offsets, size, and
// alignment, returning an error (instead of panicking) when the type or
// one of its members cannot be laid out. Bit-fields are packed into units
// of their declared type.
func (m *Model) LayoutOf(t *Type) error {
	if t.size != 0 || len(t.Fields) == 0 {
		if t.Incomplete {
			return fmt.Errorf("layout of incomplete type %s", t)
		}
		if t.size != 0 {
			return nil
		}
	}
	var size, align int64 = 0, 1
	if t.Kind == Union {
		for i := range t.Fields {
			f := &t.Fields[i]
			f.Offset = 0
			fs, err := m.SizeOf(f.Type)
			if err != nil {
				return fmt.Errorf("%s: member %q: %w", t, f.Name, err)
			}
			fa, err := m.AlignOf(f.Type)
			if err != nil {
				return fmt.Errorf("%s: member %q: %w", t, f.Name, err)
			}
			if fs > size {
				size = fs
			}
			if fa > align {
				align = fa
			}
		}
	} else {
		var bitUnitEnd int64 = -1 // byte offset past the current bit-field unit
		bitPos := 0               // next free bit within the unit
		for i := range t.Fields {
			f := &t.Fields[i]
			fs, err := m.SizeOf(f.Type)
			if err != nil {
				return fmt.Errorf("%s: member %q: %w", t, f.Name, err)
			}
			fa, err := m.AlignOf(f.Type)
			if err != nil {
				return fmt.Errorf("%s: member %q: %w", t, f.Name, err)
			}
			if fa > align {
				align = fa
			}
			if f.BitField {
				unit := fs * 8
				if f.BitWidth == 0 {
					// Zero-width: close the current unit.
					bitUnitEnd = -1
					bitPos = 0
					continue
				}
				if bitUnitEnd < 0 || int64(bitPos+f.BitWidth) > unit {
					// Start a new unit.
					size = roundUp(size, fa)
					f.Offset = size
					size += fs
					bitUnitEnd = size
					bitPos = 0
				} else {
					f.Offset = bitUnitEnd - fs
				}
				f.BitOff = bitPos
				bitPos += f.BitWidth
				continue
			}
			bitUnitEnd = -1
			bitPos = 0
			size = roundUp(size, fa)
			if fs > math.MaxInt64-m.MaxAlign-size {
				return fmt.Errorf("%s: member %q: %w", t, f.Name, ErrTooLarge)
			}
			f.Offset = size
			size += fs
		}
	}
	size = roundUp(size, align)
	if size == 0 {
		size = 1 // empty structs are a GNU extension; give them size 1
	}
	t.size = size
	t.align = align
	return nil
}

// FieldByNameOf resolves a struct/union member, forcing member-offset
// layout first (offsets are computed lazily) and reporting layout failures
// as errors instead of panicking.
func (m *Model) FieldByNameOf(t *Type, name string) (Field, bool, error) {
	if (t.Kind == Struct || t.Kind == Union) && !t.Incomplete {
		if err := m.LayoutOf(t); err != nil {
			return Field{}, false, err
		}
	}
	f, ok := t.FieldByName(name)
	return f, ok, nil
}

// FieldByName resolves a struct/union member, forcing member-offset layout
// first. It panics when the aggregate cannot be laid out; use
// FieldByNameOf to handle that as an error.
func (m *Model) FieldByName(t *Type, name string) (Field, bool) {
	f, ok, err := m.FieldByNameOf(t, name)
	if err != nil {
		panic("ctypes: " + err.Error())
	}
	return f, ok
}

func roundUp(n, align int64) int64 {
	if align <= 1 {
		return n
	}
	return (n + align - 1) / align * align
}

// Rank returns the integer conversion rank (C11 §6.3.1.1) of an integer
// type. Higher rank wins in the usual arithmetic conversions.
func Rank(k Kind) int {
	switch k {
	case Bool:
		return 1
	case Char, SChar, UChar:
		return 2
	case Short, UShort:
		return 3
	case Int, UInt, Enum:
		return 4
	case Long, ULong:
		return 5
	case LongLong, ULongLong:
		return 6
	}
	return 0
}

// unsignedOf maps a signed integer kind to its unsigned counterpart.
func unsignedOf(k Kind) Kind {
	switch k {
	case Char, SChar:
		return UChar
	case Short:
		return UShort
	case Int, Enum:
		return UInt
	case Long:
		return ULong
	case LongLong:
		return ULongLong
	}
	return k
}

// Promote applies the integer promotions (C11 §6.3.1.1:2) to t under m.
func (m *Model) Promote(t *Type) *Type {
	if !t.IsInteger() {
		return t.Unqualified()
	}
	if Rank(t.Kind) > Rank(Int) {
		return Basic(t.Kind).Unqualified()
	}
	// Types of rank <= int promote to int if int can represent all values,
	// else unsigned int.
	switch t.Kind {
	case UInt:
		return TUInt
	case UShort:
		if m.SizeShort >= m.SizeInt {
			return TUInt
		}
	case UChar, Bool:
		// always fits in int (sizes 1 < SizeInt in all our models)
	case Char:
		if !m.CharSigned && 1 >= m.SizeInt {
			return TUInt
		}
	}
	return TInt
}

// UsualArith applies the usual arithmetic conversions (C11 §6.3.1.8) to a
// pair of arithmetic types, returning the common type.
func (m *Model) UsualArith(a, b *Type) *Type {
	if a.Kind == LongDouble || b.Kind == LongDouble {
		return TLongDouble
	}
	if a.Kind == Double || b.Kind == Double {
		return TDouble
	}
	if a.Kind == Float || b.Kind == Float {
		return TFloat
	}
	pa, pb := m.Promote(a), m.Promote(b)
	if pa.Kind == pb.Kind {
		return pa
	}
	sa, sb := pa.IsSigned(m), pb.IsSigned(m)
	ra, rb := Rank(pa.Kind), Rank(pb.Kind)
	switch {
	case sa == sb:
		if ra >= rb {
			return pa
		}
		return pb
	case !sa && ra >= rb:
		return pa
	case !sb && rb >= ra:
		return pb
	case sa && m.Size(pa) > m.Size(pb):
		return pa
	case sb && m.Size(pb) > m.Size(pa):
		return pb
	case sa:
		return Basic(unsignedOf(pa.Kind))
	default:
		return Basic(unsignedOf(pb.Kind))
	}
}

// IntMin returns the minimum value of integer type t under m.
func (m *Model) IntMin(t *Type) int64 {
	if !t.IsSigned(m) {
		return 0
	}
	bits := m.Size(t) * 8
	return -(1 << (bits - 1))
}

// IntMax returns the maximum value of integer type t under m, as uint64 so
// that ULLONG_MAX is representable.
func (m *Model) IntMax(t *Type) uint64 {
	bits := uint(m.Size(t)) * 8
	if t.Kind == Bool {
		return 1
	}
	if t.IsSigned(m) {
		return 1<<(bits-1) - 1
	}
	if bits >= 64 {
		return ^uint64(0)
	}
	return 1<<bits - 1
}

// InRange reports whether the signed value v is representable in integer
// type t under m.
func (m *Model) InRange(t *Type, v int64) bool {
	if t.IsSigned(m) {
		return v >= m.IntMin(t) && (v < 0 || uint64(v) <= m.IntMax(t))
	}
	return v >= 0 && uint64(v) <= m.IntMax(t)
}

// Wrap truncates the two's-complement bit pattern v to type t's width and
// reinterprets it according to t's signedness, returning the canonical
// 64-bit representation (sign-extended for signed types).
func (m *Model) Wrap(t *Type, v uint64) uint64 {
	bits := uint(m.Size(t)) * 8
	if t.Kind == Bool {
		if v != 0 {
			return 1
		}
		return 0
	}
	if bits >= 64 {
		return v
	}
	v &= 1<<bits - 1
	if t.IsSigned(m) && v&(1<<(bits-1)) != 0 {
		v |= ^uint64(0) << bits
	}
	return v
}

func (m *Model) String() string { return fmt.Sprintf("Model(%s)", m.Name) }
