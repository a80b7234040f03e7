// Package ctypes models the C type system: object and function types,
// qualifiers, integer promotion and conversion rules, and struct/union
// layout under an explicit implementation-defined Model.
package ctypes

import (
	"fmt"
	"strings"
)

// Kind discriminates types.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Void
	Bool
	Char // plain char (distinct from signed char and unsigned char)
	SChar
	UChar
	Short
	UShort
	Int
	UInt
	Long
	ULong
	LongLong
	ULongLong
	Float
	Double
	LongDouble
	Enum
	Ptr
	Array
	Struct
	Union
	Func
)

var kindNames = [...]string{
	Invalid: "<invalid>", Void: "void", Bool: "_Bool", Char: "char",
	SChar: "signed char", UChar: "unsigned char", Short: "short",
	UShort: "unsigned short", Int: "int", UInt: "unsigned int",
	Long: "long", ULong: "unsigned long", LongLong: "long long",
	ULongLong: "unsigned long long", Float: "float", Double: "double",
	LongDouble: "long double", Enum: "enum", Ptr: "pointer",
	Array: "array", Struct: "struct", Union: "union", Func: "function",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Quals is a set of type qualifiers.
type Quals uint8

// Qualifier bits.
const (
	QConst Quals = 1 << iota
	QVolatile
	QRestrict
)

// Has reports whether q contains all qualifiers in bits.
func (q Quals) Has(bits Quals) bool { return q&bits == bits }

func (q Quals) String() string {
	var parts []string
	if q.Has(QConst) {
		parts = append(parts, "const")
	}
	if q.Has(QVolatile) {
		parts = append(parts, "volatile")
	}
	if q.Has(QRestrict) {
		parts = append(parts, "restrict")
	}
	return strings.Join(parts, " ")
}

// Field is a struct or union member.
type Field struct {
	Name     string
	Type     *Type
	Offset   int64 // byte offset within the aggregate (0 for union members)
	BitField bool
	BitWidth int
	BitOff   int // bit offset within the storage unit
}

// Param is a function parameter.
type Param struct {
	Name string
	Type *Type
}

// Type is a C type. Types are treated as immutable after construction
// except that incomplete struct/union types are completed in place
// (matching C's single-definition tag semantics).
type Type struct {
	Kind Kind
	Qual Quals

	// Ptr, Array: element type. Func: return type.
	Elem *Type

	// Array: length in elements; ArrayLen < 0 means incomplete ([]).
	ArrayLen int64
	// Array: true if declared with a non-constant (VLA) size.
	VLA bool

	// Struct, Union, Enum: tag name ("" if anonymous) and definition state.
	Tag        string
	Fields     []Field
	Incomplete bool

	// Enum: the compatible integer type (always Int in our models).
	// Func:
	Params   []Param
	Variadic bool
	// OldStyle marks a function declared with an empty parameter list
	// "()" — unknown parameters, calls are unchecked at compile time
	// (but checked dynamically; see ub.BadFunctionCall).
	OldStyle bool

	// Struct/Union layout cache, computed on first Size query.
	size  int64
	align int64

	// decayed caches the pointer type an array or function value decays
	// to (C11 §6.3.2.1). Filled at construction — before the type is
	// shared — so Decay never allocates on the interpreter's access path.
	decayed *Type

	// negLen is the negative constant length an array declarator gave
	// (see NegativeArrayOf), kept by a parameter's adjusted pointer.
	negLen int64
}

// Predeclared basic types (unqualified). Use Qualified to add qualifiers.
var (
	TVoid       = &Type{Kind: Void}
	TBool       = &Type{Kind: Bool}
	TChar       = &Type{Kind: Char}
	TSChar      = &Type{Kind: SChar}
	TUChar      = &Type{Kind: UChar}
	TShort      = &Type{Kind: Short}
	TUShort     = &Type{Kind: UShort}
	TInt        = &Type{Kind: Int}
	TUInt       = &Type{Kind: UInt}
	TLong       = &Type{Kind: Long}
	TULong      = &Type{Kind: ULong}
	TLongLong   = &Type{Kind: LongLong}
	TULongLong  = &Type{Kind: ULongLong}
	TFloat      = &Type{Kind: Float}
	TDouble     = &Type{Kind: Double}
	TLongDouble = &Type{Kind: LongDouble}
)

// Basic returns the predeclared unqualified type for a basic kind. It
// panics on non-basic kinds — a caller invariant violation; use BasicOf
// when the kind comes from unvalidated input.
func Basic(k Kind) *Type {
	t, err := BasicOf(k)
	if err != nil {
		panic("ctypes: " + err.Error())
	}
	return t
}

// BasicOf returns the predeclared unqualified type for a basic kind, or an
// error for non-basic kinds.
func BasicOf(k Kind) (*Type, error) {
	switch k {
	case Void:
		return TVoid, nil
	case Bool:
		return TBool, nil
	case Char:
		return TChar, nil
	case SChar:
		return TSChar, nil
	case UChar:
		return TUChar, nil
	case Short:
		return TShort, nil
	case UShort:
		return TUShort, nil
	case Int:
		return TInt, nil
	case UInt:
		return TUInt, nil
	case Long:
		return TLong, nil
	case ULong:
		return TULong, nil
	case LongLong:
		return TLongLong, nil
	case ULongLong:
		return TULongLong, nil
	case Float:
		return TFloat, nil
	case Double:
		return TDouble, nil
	case LongDouble:
		return TLongDouble, nil
	}
	return nil, fmt.Errorf("not a basic kind: %v", k)
}

// PointerTo returns a pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Ptr, Elem: elem} }

// ArrayOf returns an array type of n elements of elem; n < 0 for incomplete.
func ArrayOf(elem *Type, n int64) *Type {
	return &Type{Kind: Array, Elem: elem, ArrayLen: n, decayed: &Type{Kind: Ptr, Elem: elem}}
}

// NegativeArrayOf returns the type of an array declared with the negative
// constant length n, which C11 §6.7.6.2:1 forbids: an array of length 0
// that remembers n, so the static check reports it (see NegativeLen).
func NegativeArrayOf(elem *Type, n int64) *Type {
	t := ArrayOf(elem, 0)
	t.negLen = n
	return t
}

// NegativeLen is the negative length t was declared with: for an array
// from NegativeArrayOf, or for the pointer a parameter declared as such an
// array is adjusted to (AdjustParam). It is 0 for every other type.
func (t *Type) NegativeLen() int64 { return t.negLen }

// AdjustParam returns the type a parameter declared with type t has
// (C11 §6.7.6.3:7-8): an array becomes a pointer to its element, with the
// array's qualifiers, and a function a pointer to it.
func AdjustParam(t *Type) *Type {
	switch t.Kind {
	case Array:
		p := PointerTo(t.Elem).Qualified(t.Qual)
		if t.negLen < 0 {
			c := *p
			c.negLen = t.negLen
			return &c
		}
		return p
	case Func:
		return PointerTo(t)
	}
	return t
}

// FuncType returns a function type.
func FuncType(ret *Type, params []Param, variadic bool) *Type {
	f := &Type{Kind: Func, Elem: ret, Params: params, Variadic: variadic}
	f.decayed = &Type{Kind: Ptr, Elem: f}
	return f
}

// Decay returns the pointer type t decays to when used as a value: T* for
// an array of T, a function pointer for a function type (C11 §6.3.2.1).
// Equal to PointerTo of the element (resp. the type itself) but served
// from the construction-time cache on the hot path.
func (t *Type) Decay() *Type {
	if t.decayed != nil {
		return t.decayed
	}
	if t.Kind == Array {
		return PointerTo(t.Elem)
	}
	return PointerTo(t)
}

// RestoreDecay refills the construction-time decay cache on a type
// rebuilt by a decoder (internal/artifact). The construction helpers
// (ArrayOf, FuncType) fill decayed before a type is ever shared; a decoder
// allocates Types directly from wire data and must call this on each one
// after its Elem is in place, so Decay stays allocation-free on the
// interpreter's access path for decoded programs too. No-op for types that
// do not decay or already carry a cache.
func (t *Type) RestoreDecay() {
	if t.decayed != nil {
		return
	}
	switch t.Kind {
	case Array:
		t.decayed = &Type{Kind: Ptr, Elem: t.Elem}
	case Func:
		t.decayed = &Type{Kind: Ptr, Elem: t}
	}
}

// Qualified returns t with qualifiers added (sharing underlying structure).
func (t *Type) Qualified(q Quals) *Type {
	if q == 0 || t.Qual.Has(q) {
		return t
	}
	c := *t
	c.Qual |= q
	return &c
}

// Unqualified returns t without qualifiers.
func (t *Type) Unqualified() *Type {
	if t.Qual == 0 {
		return t
	}
	c := *t
	c.Qual = 0
	return &c
}

// IsInteger reports whether t is an integer type (including _Bool, char,
// and enums).
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case Bool, Char, SChar, UChar, Short, UShort, Int, UInt, Long, ULong,
		LongLong, ULongLong, Enum:
		return true
	}
	return false
}

// IsFloat reports whether t is a real floating type.
func (t *Type) IsFloat() bool {
	switch t.Kind {
	case Float, Double, LongDouble:
		return true
	}
	return false
}

// IsArithmetic reports whether t is an arithmetic type.
func (t *Type) IsArithmetic() bool { return t.IsInteger() || t.IsFloat() }

// IsScalar reports whether t is a scalar (arithmetic or pointer) type.
func (t *Type) IsScalar() bool { return t.IsArithmetic() || t.Kind == Ptr }

// IsAggregate reports whether t is a struct, union, or array type.
func (t *Type) IsAggregate() bool {
	return t.Kind == Struct || t.Kind == Union || t.Kind == Array
}

// IsVoidPtr reports whether t is (possibly qualified) pointer to void.
func (t *Type) IsVoidPtr() bool { return t.Kind == Ptr && t.Elem.Kind == Void }

// IsCharTy reports whether t is one of the three character types.
func (t *Type) IsCharTy() bool {
	return t.Kind == Char || t.Kind == SChar || t.Kind == UChar
}

// IsSigned reports whether integer type t is signed under model m.
func (t *Type) IsSigned(m *Model) bool {
	switch t.Kind {
	case SChar, Short, Int, Long, LongLong:
		return true
	case Char:
		return m.CharSigned
	case Enum:
		return true // our enums are int-compatible
	}
	return false
}

// IsComplete reports whether t's size is known.
func (t *Type) IsComplete() bool {
	switch t.Kind {
	case Void, Func:
		return false
	case Array:
		return t.ArrayLen >= 0 && t.Elem.IsComplete()
	case Struct, Union:
		return !t.Incomplete
	}
	return t.Kind != Invalid
}

// FieldByName finds a member of a struct/union, including members of
// anonymous sub-structs (returning the accumulated offset).
func (t *Type) FieldByName(name string) (Field, bool) {
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
		if f.Name == "" && (f.Type.Kind == Struct || f.Type.Kind == Union) {
			if sub, ok := f.Type.FieldByName(name); ok {
				sub.Offset += f.Offset
				return sub, true
			}
		}
	}
	return Field{}, false
}

// String renders the type in a readable C-like syntax.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	var prefix string
	if q := t.Qual.String(); q != "" {
		prefix = q + " "
	}
	switch t.Kind {
	case Ptr:
		return prefix + t.Elem.String() + "*"
	case Array:
		// Collect dimensions outside-in so int[2][3] reads like C.
		dims := ""
		elem := t
		for elem.Kind == Array {
			if elem.ArrayLen < 0 {
				dims += "[]"
			} else {
				dims += fmt.Sprintf("[%d]", elem.ArrayLen)
			}
			elem = elem.Elem
		}
		return prefix + elem.String() + dims
	case Struct, Union:
		tag := t.Tag
		if tag == "" {
			tag = "<anonymous>"
		}
		return prefix + t.Kind.String() + " " + tag
	case Enum:
		tag := t.Tag
		if tag == "" {
			tag = "<anonymous>"
		}
		return prefix + "enum " + tag
	case Func:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, p.Type.String())
		}
		if t.Variadic {
			ps = append(ps, "...")
		}
		return fmt.Sprintf("%s(%s)", t.Elem, strings.Join(ps, ", "))
	default:
		return prefix + t.Kind.String()
	}
}
