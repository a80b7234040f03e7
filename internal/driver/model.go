package driver

import (
	"math"
	"strconv"

	"repro/internal/cpp"
	"repro/internal/ctypes"
)

// lp64 is the model cpp.New's predefined macros describe.
var lp64 = *ctypes.LP64()

// intType is one standard integer type, in rank order, as the data-model
// macros spell it.
type intType struct {
	signed, unsigned string
	suffix           string // the suffix of its long constants: "", "L" or "LL"
	size             int64
}

func intTypes(m *ctypes.Model) []intType {
	return []intType{
		{"signed char", "unsigned char", "", 1},
		{"short", "unsigned short", "", m.SizeShort},
		{"int", "unsigned int", "", m.SizeInt},
		{"long", "unsigned long", "L", m.SizeLong},
		{"long long", "unsigned long long", "LL", m.SizeLongLong},
	}
}

// maxima spells the largest values of t and of its unsigned counterpart
// as constants of the types they promote to (C11 §5.2.4.2.1:1).
func (t intType) maxima(m *ctypes.Model) (smax, umax string) {
	bits := 8 * t.size
	smax = strconv.FormatUint(1<<(bits-1)-1, 10) + t.suffix
	umax = strconv.FormatUint(math.MaxUint64>>(64-bits), 10)
	if t.size >= m.SizeInt || t.suffix != "" {
		umax += "u" + t.suffix
	}
	return smax, umax
}

// defineModel sets the predefined data-model macros that the built-in
// headers read (__INT_MAX__, __INT64_TYPE__, ...) from m. cpp.New holds
// their LP64 values. An exact width that m has no type for is left
// undefined, and its typedefs in stdint.h expand to nothing.
func defineModel(pp *cpp.Preprocessor, m *ctypes.Model) {
	def := func(name, value string) {
		if err := pp.Define(name + "=" + value); err != nil {
			panic("driver: model macro " + name + ": " + err.Error())
		}
	}
	types := intTypes(m)
	for _, lim := range []struct {
		t                 intType
		signedMax, unsMax string
	}{
		{types[1], "__SHRT_MAX__", "__USHRT_MAX__"},
		{types[2], "__INT_MAX__", "__UINT_MAX__"},
		{types[3], "__LONG_MAX__", "__ULONG_MAX__"},
		{types[4], "__LONG_LONG_MAX__", "__ULONG_LONG_MAX__"},
	} {
		smax, umax := lim.t.maxima(m)
		def(lim.signedMax, smax)
		def(lim.unsMax, umax)
	}
	for _, bits := range []int64{8, 16, 32, 64} {
		n := strconv.FormatInt(bits, 10)
		sType, uType := "__INT"+n+"_TYPE__", "__UINT"+n+"_TYPE__"
		sMax, uMax := "__INT"+n+"_MAX__", "__UINT"+n+"_MAX__"
		wrap := "__KCC_IF_INT" + n + "__(decl)"
		t, ok := sized(types, bits/8)
		if !ok {
			for _, name := range []string{sType, uType, sMax, uMax} {
				pp.Undef(name)
			}
			def(wrap, "")
			continue
		}
		smax, umax := t.maxima(m)
		def(sType, t.signed)
		def(uType, t.unsigned)
		def(sMax, smax)
		def(uMax, umax)
		def(wrap, "decl")
	}
	// intptr_t is the first type from int up as wide as a pointer.
	if t, ok := sized(types[2:], m.SizePtr); ok {
		def("__INTPTR_TYPE__", t.signed)
		def("__UINTPTR_TYPE__", t.unsigned)
	}
}

// sized returns the first of types whose size is size bytes.
func sized(types []intType, size int64) (intType, bool) {
	for _, t := range types {
		if t.size == size {
			return t, true
		}
	}
	return intType{}, false
}
