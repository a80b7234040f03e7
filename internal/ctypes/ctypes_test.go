package ctypes

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBasicSizes(t *testing.T) {
	m := LP64()
	tests := []struct {
		ty   *Type
		size int64
	}{
		{TChar, 1}, {TBool, 1}, {TShort, 2}, {TInt, 4}, {TLong, 8},
		{TLongLong, 8}, {TFloat, 4}, {TDouble, 8},
		{PointerTo(TInt), 8}, {ArrayOf(TInt, 10), 40},
	}
	for _, tt := range tests {
		if got := m.Size(tt.ty); got != tt.size {
			t.Errorf("Size(%s) = %d, want %d", tt.ty, got, tt.size)
		}
	}
	if m.Size(TInt) == Int8().Size(TInt) {
		t.Error("INT8 model should have different int size")
	}
	if ILP32().Size(PointerTo(TInt)) != 4 {
		t.Error("ILP32 pointers should be 4 bytes")
	}
}

func TestStructLayout(t *testing.T) {
	m := LP64()
	// struct { char c; int i; char d; } → offsets 0, 4, 8; size 12.
	s := &Type{Kind: Struct, Tag: "s", Fields: []Field{
		{Name: "c", Type: TChar},
		{Name: "i", Type: TInt},
		{Name: "d", Type: TChar},
	}}
	if got := m.Size(s); got != 12 {
		t.Errorf("size = %d, want 12", got)
	}
	if s.Fields[1].Offset != 4 {
		t.Errorf("offset of i = %d, want 4", s.Fields[1].Offset)
	}
	if s.Fields[2].Offset != 8 {
		t.Errorf("offset of d = %d, want 8", s.Fields[2].Offset)
	}
	if got := m.Align(s); got != 4 {
		t.Errorf("align = %d, want 4", got)
	}
}

func TestUnionLayout(t *testing.T) {
	m := LP64()
	u := &Type{Kind: Union, Tag: "u", Fields: []Field{
		{Name: "c", Type: TChar},
		{Name: "l", Type: TLong},
	}}
	if got := m.Size(u); got != 8 {
		t.Errorf("union size = %d, want 8", got)
	}
	for _, f := range u.Fields {
		if f.Offset != 0 {
			t.Errorf("union member %s offset = %d, want 0", f.Name, f.Offset)
		}
	}
}

func TestFieldOrderingMatchesStandard(t *testing.T) {
	// C11 §6.5.8:5 (used in the paper §4.3.1): struct members are ordered.
	m := LP64()
	s := &Type{Kind: Struct, Tag: "s", Fields: []Field{
		{Name: "a", Type: TInt},
		{Name: "b", Type: TInt},
	}}
	m.Size(s)
	if !(s.Fields[0].Offset < s.Fields[1].Offset) {
		t.Error("later struct members must have higher addresses")
	}
}

func TestPromote(t *testing.T) {
	m := LP64()
	tests := []struct {
		in, want Kind
	}{
		{Char, Int}, {SChar, Int}, {UChar, Int}, {Short, Int},
		{UShort, Int}, {Bool, Int}, {Int, Int}, {UInt, UInt},
		{Long, Long}, {ULongLong, ULongLong},
	}
	for _, tt := range tests {
		if got := m.Promote(Basic(tt.in)); got.Kind != tt.want {
			t.Errorf("Promote(%v) = %v, want %v", tt.in, got.Kind, tt.want)
		}
	}
}

func TestUsualArith(t *testing.T) {
	m := LP64()
	tests := []struct {
		a, b, want Kind
	}{
		{Int, Int, Int},
		{Char, Char, Int},
		{Int, UInt, UInt},
		{Int, Long, Long},
		{UInt, Long, Long}, // long can represent all uint values in LP64
		{Long, ULong, ULong},
		{Int, Double, Double},
		{Float, Int, Float},
		{UInt, LongLong, LongLong},
		{ULong, LongLong, ULongLong}, // same size: unsigned counterpart
	}
	for _, tt := range tests {
		if got := m.UsualArith(Basic(tt.a), Basic(tt.b)); got.Kind != tt.want {
			t.Errorf("UsualArith(%v, %v) = %v, want %v", tt.a, tt.b, got.Kind, tt.want)
		}
	}
	// ILP32: uint + long → unsigned long (long can't hold all uints).
	if got := ILP32().UsualArith(TUInt, TLong); got.Kind != ULong {
		t.Errorf("ILP32 UsualArith(uint, long) = %v, want ULong", got.Kind)
	}
}

func TestIntMinMax(t *testing.T) {
	m := LP64()
	if m.IntMax(TInt) != 2147483647 {
		t.Errorf("INT_MAX = %d", m.IntMax(TInt))
	}
	if m.IntMin(TInt) != -2147483648 {
		t.Errorf("INT_MIN = %d", m.IntMin(TInt))
	}
	if m.IntMax(TUInt) != 4294967295 {
		t.Errorf("UINT_MAX = %d", m.IntMax(TUInt))
	}
	if m.IntMax(TULongLong) != ^uint64(0) {
		t.Errorf("ULLONG_MAX = %d", m.IntMax(TULongLong))
	}
	if m.IntMin(TUInt) != 0 {
		t.Error("unsigned min must be 0")
	}
	if m.IntMax(TBool) != 1 {
		t.Error("bool max must be 1")
	}
}

func TestWrapProperties(t *testing.T) {
	m := LP64()
	// Wrap is idempotent and lands in range, for every integer type.
	kinds := []Kind{Bool, Char, SChar, UChar, Short, UShort, Int, UInt,
		Long, ULong, LongLong, ULongLong}
	f := func(raw uint64, pick uint8) bool {
		ty := Basic(kinds[int(pick)%len(kinds)])
		w := m.Wrap(ty, raw)
		if m.Wrap(ty, w) != w {
			return false
		}
		return m.InRange(ty, int64(w)) || !ty.IsSigned(m) && w <= m.IntMax(ty)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWrapExamples(t *testing.T) {
	m := LP64()
	if got := int64(m.Wrap(TSChar, 255)); got != -1 {
		t.Errorf("Wrap(schar, 255) = %d, want -1", got)
	}
	if got := int64(m.Wrap(TUChar, 256)); got != 0 {
		t.Errorf("Wrap(uchar, 256) = %d, want 0", got)
	}
	if got := int64(m.Wrap(TInt, 0x80000000)); got != -2147483648 {
		t.Errorf("Wrap(int, 2^31) = %d", got)
	}
	if got := m.Wrap(TBool, 42); got != 1 {
		t.Errorf("Wrap(bool, 42) = %d, want 1", got)
	}
}

func TestCompatible(t *testing.T) {
	intPtr := PointerTo(TInt)
	constIntPtr := PointerTo(TInt.Qualified(QConst))
	tests := []struct {
		a, b *Type
		want bool
	}{
		{TInt, TInt, true},
		{TInt, TUInt, false},
		{TInt, TLong, false},
		{intPtr, PointerTo(TInt), true},
		{intPtr, constIntPtr, false}, // pointee quals matter
		{ArrayOf(TInt, 3), ArrayOf(TInt, 3), true},
		{ArrayOf(TInt, 3), ArrayOf(TInt, 4), false},
		{ArrayOf(TInt, 3), ArrayOf(TInt, -1), true}, // incomplete matches
		{FuncType(TInt, nil, false), FuncType(TInt, nil, false), true},
		{FuncType(TInt, []Param{{Type: TInt}}, false), FuncType(TInt, []Param{{Type: TLong}}, false), false},
	}
	for _, tt := range tests {
		if got := Compatible(tt.a, tt.b); got != tt.want {
			t.Errorf("Compatible(%s, %s) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestAliasAllowed(t *testing.T) {
	s := &Type{Kind: Struct, Tag: "s", Fields: []Field{{Name: "x", Type: TInt}}}
	tests := []struct {
		lv, obj *Type
		want    bool
	}{
		{TInt, TInt, true},
		{TUInt, TInt, true},  // corresponding unsigned type
		{TChar, TLong, true}, // character access always allowed
		{TUChar, s, true},
		{TInt, TLong, false},
		{TFloat, TInt, false},
		{TInt, s, true}, // member type
		{TLong, s, false},
		{TInt, ArrayOf(TInt, 4), true},
	}
	for _, tt := range tests {
		if got := AliasAllowed(tt.lv, tt.obj); got != tt.want {
			t.Errorf("AliasAllowed(%s, %s) = %v, want %v", tt.lv, tt.obj, got, tt.want)
		}
	}
}

func TestQualified(t *testing.T) {
	ci := TInt.Qualified(QConst)
	if !ci.Qual.Has(QConst) {
		t.Error("missing const")
	}
	if TInt.Qual != 0 {
		t.Error("Qualified must not mutate the shared basic type")
	}
	if ci.Unqualified().Qual != 0 {
		t.Error("Unqualified failed")
	}
	if ci.String() != "const int" {
		t.Errorf("String = %q", ci.String())
	}
}

func TestBitfieldLayout(t *testing.T) {
	m := LP64()
	s := &Type{Kind: Struct, Tag: "bf", Fields: []Field{
		{Name: "a", Type: TInt, BitField: true, BitWidth: 3},
		{Name: "b", Type: TInt, BitField: true, BitWidth: 5},
		{Name: "c", Type: TInt, BitField: true, BitWidth: 30},
	}}
	if got := m.Size(s); got != 8 {
		t.Errorf("bitfield struct size = %d, want 8", got)
	}
	if s.Fields[0].BitOff != 0 || s.Fields[1].BitOff != 3 {
		t.Errorf("bit offsets: %d, %d", s.Fields[0].BitOff, s.Fields[1].BitOff)
	}
	if s.Fields[2].Offset != 4 {
		t.Errorf("c offset = %d, want 4 (new unit)", s.Fields[2].Offset)
	}
}

func TestIncomplete(t *testing.T) {
	s := &Type{Kind: Struct, Tag: "fwd", Incomplete: true}
	if s.IsComplete() {
		t.Error("forward struct must be incomplete")
	}
	if ArrayOf(TInt, -1).IsComplete() {
		t.Error("unsized array must be incomplete")
	}
	if TVoid.IsComplete() {
		t.Error("void must be incomplete")
	}
	if !TInt.IsComplete() {
		t.Error("int must be complete")
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		ty   *Type
		want string
	}{
		{PointerTo(TChar), "char*"},
		{ArrayOf(TInt, 5), "int[5]"},
		{FuncType(TInt, []Param{{Type: TInt}}, true), "int(int, ...)"},
	}
	for _, tt := range tests {
		if got := tt.ty.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestSizeOfErrors(t *testing.T) {
	m := LP64()
	if _, err := m.SizeOf(ArrayOf(TInt, -1)); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("SizeOf(int[]) err = %v, want incomplete-array error", err)
	}
	if _, err := m.SizeOf(TVoid); err == nil {
		t.Error("SizeOf(void) succeeded, want non-object error")
	}
	if _, err := m.SizeOf(FuncType(TInt, nil, false)); err == nil {
		t.Error("SizeOf(func) succeeded, want non-object error")
	}
	if n, err := m.SizeOf(TInt); err != nil || n != 4 {
		t.Errorf("SizeOf(int) = %d, %v", n, err)
	}
	// Nested: array of incomplete structs.
	fwd := &Type{Kind: Struct, Tag: "fwd", Incomplete: true}
	if _, err := m.SizeOf(ArrayOf(fwd, 3)); err == nil {
		t.Error("SizeOf(struct fwd[3]) succeeded, want layout error")
	}
}

func TestLayoutOfFlexibleArrayMember(t *testing.T) {
	// struct s { int n; int a[]; } — passes IsComplete (Incomplete is only
	// set for forward declarations) but cannot be laid out. This is the
	// crash class the error-returning API exists for.
	m := LP64()
	s := &Type{Kind: Struct, Tag: "s", Fields: []Field{
		{Name: "n", Type: TInt},
		{Name: "a", Type: ArrayOf(TInt, -1)},
	}}
	err := m.LayoutOf(s)
	if err == nil {
		t.Fatal("LayoutOf(FAM struct) succeeded, want error")
	}
	if !strings.Contains(err.Error(), `member "a"`) {
		t.Errorf("error does not name the offending member: %v", err)
	}
	if _, err := m.SizeOf(s); err == nil {
		t.Error("SizeOf(FAM struct) succeeded, want error")
	}
	if _, _, err := m.FieldByNameOf(s, "n"); err == nil {
		t.Error("FieldByNameOf(FAM struct) succeeded, want error")
	}
}

func TestSizeStillPanicsOnInvariantViolation(t *testing.T) {
	m := LP64()
	defer func() {
		if recover() == nil {
			t.Error("Size(int[]) did not panic")
		}
	}()
	m.Size(ArrayOf(TInt, -1))
}

func TestBasicOf(t *testing.T) {
	for _, k := range []Kind{Void, Bool, Char, Int, ULongLong, LongDouble} {
		ty, err := BasicOf(k)
		if err != nil || ty.Kind != k {
			t.Errorf("BasicOf(%v) = %v, %v", k, ty, err)
		}
	}
	for _, k := range []Kind{Invalid, Ptr, Array, Struct, Union, Func, Enum} {
		if _, err := BasicOf(k); err == nil {
			t.Errorf("BasicOf(%v) succeeded, want error", k)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Basic(Ptr) did not panic")
		}
	}()
	Basic(Ptr)
}

func TestModelFor(t *testing.T) {
	tests := []struct {
		name, want string
	}{
		{"", "LP64"},
		{"LP64", "LP64"},
		{"ilp32", "ILP32"},
		{"INT8", "INT8"},
	}
	for _, tt := range tests {
		m, err := ModelFor(tt.name)
		if err != nil || m.Name != tt.want {
			t.Errorf("ModelFor(%q) = %v, %v; want %s", tt.name, m, err, tt.want)
		}
	}
	if m, err := ModelFor("PDP11"); err == nil {
		t.Errorf("ModelFor(PDP11) = %v, want an error", m)
	}
}
