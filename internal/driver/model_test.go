package driver

import (
	"testing"

	"repro/internal/cpp"
	"repro/internal/ctypes"
)

// modelProbe uses every data-model macro the built-in headers read.
const modelProbe = `__SHRT_MAX__ __USHRT_MAX__ __INT_MAX__ __UINT_MAX__
__LONG_MAX__ __ULONG_MAX__ __LONG_LONG_MAX__ __ULONG_LONG_MAX__
__INT8_TYPE__ __UINT8_TYPE__ __INT8_MAX__ __UINT8_MAX__ __KCC_IF_INT8__(d)
__INT16_TYPE__ __UINT16_TYPE__ __INT16_MAX__ __UINT16_MAX__ __KCC_IF_INT16__(d)
__INT32_TYPE__ __UINT32_TYPE__ __INT32_MAX__ __UINT32_MAX__ __KCC_IF_INT32__(d)
__INT64_TYPE__ __UINT64_TYPE__ __INT64_MAX__ __UINT64_MAX__ __KCC_IF_INT64__(d)
__INTPTR_TYPE__ __UINTPTR_TYPE__
`

func probeModel(t *testing.T, m *ctypes.Model) string {
	t.Helper()
	pp := cpp.New(cpp.MapResolver(nil))
	if m != nil {
		defineModel(pp, m)
	}
	out, err := pp.Run(modelProbe, "probe.c")
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDefineModelLP64IsDefault pins what lets Compile skip defineModel
// under LP64: the preprocessor's predefined model macros are exactly what
// defineModel derives from ctypes.LP64.
func TestDefineModelLP64IsDefault(t *testing.T) {
	if got, want := probeModel(t, ctypes.LP64()), probeModel(t, nil); got != want {
		t.Errorf("defineModel(LP64):\n%s\npredefined:\n%s", got, want)
	}
}

func TestDefineModel(t *testing.T) {
	for _, tc := range []struct {
		m    *ctypes.Model
		want string
	}{
		{ctypes.ILP32(), `# 1 "probe.c"
 32767 65535 2147483647 4294967295u
 2147483647L 4294967295uL 9223372036854775807LL 18446744073709551615uLL
 signed char unsigned char 127 255 d
 short unsigned short 32767 65535 d
 int unsigned int 2147483647 4294967295u d
 long long unsigned long long 9223372036854775807LL 18446744073709551615uLL d
 int unsigned int
`},
		{ctypes.Int8(), `# 1 "probe.c"
 32767 65535 9223372036854775807 18446744073709551615u
 9223372036854775807L 18446744073709551615uL 9223372036854775807LL 18446744073709551615uLL
 signed char unsigned char 127 255 d
 short unsigned short 32767 65535 d
 __INT32_TYPE__ __UINT32_TYPE__ __INT32_MAX__ __UINT32_MAX__
 int unsigned int 9223372036854775807 18446744073709551615u d
 int unsigned int
`},
	} {
		if got := probeModel(t, tc.m); got != tc.want {
			t.Errorf("%s:\n%s\nwant\n%s", tc.m.Name, got, tc.want)
		}
	}
}
