// External test package: cheaders imports cpp, so seeding the fuzzer with
// the built-in libc headers requires breaking the would-be import cycle.
package cpp_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/cpp"
)

// fuzzSeeds seeds FuzzCPP; TestCPPOutputGolden pins their output too.
var fuzzSeeds = []string{
	"#define X(a,b) a##b\nint v = X(1,2);\n",
	"#include <stdio.h>\nint main(void){ printf(\"hi\"); }\n",
	"#if defined(A) && B\n#elif !C\n#else\n#endif\n",
	"#define REC REC x\nREC\n",
	"#define STR(x) #x\nchar *s = STR(a \"b\" c);\n",
	"#ifdef UNCLOSED\n",
	"#define\n#undef\n#include\n#if\n",
	"#line 42 \"other.c\"\n__LINE__ __FILE__\n",
}

// FuzzCPP asserts the preprocessor's crash-freedom contract: any input —
// unbalanced conditionals, self-referential macros, truncated directives —
// either expands or returns an error, never panics. Includes resolve only
// against the built-in libc headers (no filesystem access while fuzzing).
//
// Every preprocessor shares the scanned built-in headers and the
// predefined macro table, so a second preprocessor must give the same
// result on the same input: a run that wrote to either would not.
func FuzzCPP(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		out, err := cpp.New(cheaders.Resolver()).Run(src, "fuzz.c")
		if err == nil && strings.Contains(out, "\x00") && !strings.Contains(src, "\x00") {
			t.Error("preprocessor invented NUL bytes")
		}
		out2, err2 := cpp.New(cheaders.Resolver()).Run(src, "fuzz.c")
		if out2 != out || fmt.Sprint(err2) != fmt.Sprint(err) {
			t.Errorf("second preprocessor differs: %q, %v; first %q, %v", out2, err2, out, err)
		}
	})
}
