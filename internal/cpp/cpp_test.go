package cpp

import (
	"strings"
	"testing"
)

// pp preprocesses src and returns the output with all whitespace normalized
// to single spaces and line markers removed, for easy comparison.
func pp(t *testing.T, src string, includes map[string]string) string {
	t.Helper()
	out, err := Preprocess(src, "test.c", MapResolver(includes))
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return normalize(out)
}

func normalize(out string) string {
	var words []string
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		words = append(words, strings.Fields(line)...)
	}
	return strings.Join(words, " ")
}

func TestObjectMacro(t *testing.T) {
	got := pp(t, "#define N 42\nint x = N;", nil)
	if got != "int x = 42 ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacro(t *testing.T) {
	got := pp(t, "#define SQ(x) ((x)*(x))\nint y = SQ(3+1);", nil)
	if got != "int y = ( ( 3 + 1 ) * ( 3 + 1 ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestFunctionMacroNoParens(t *testing.T) {
	got := pp(t, "#define F(x) x\nint F = 1;", nil)
	if got != "int F = 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedMacro(t *testing.T) {
	got := pp(t, "#define A B\n#define B C\n#define C 7\nint x = A;", nil)
	if got != "int x = 7 ;" {
		t.Errorf("got %q", got)
	}
}

func TestRecursiveMacroStops(t *testing.T) {
	got := pp(t, "#define X X\nint X;", nil)
	if got != "int X ;" {
		t.Errorf("got %q", got)
	}
}

func TestMutualRecursionStops(t *testing.T) {
	got := pp(t, "#define A B\n#define B A\nint A;", nil)
	if got != "int A ;" {
		t.Errorf("got %q", got)
	}
}

func TestStringize(t *testing.T) {
	got := pp(t, "#define S(x) #x\nconst char *p = S(a + b);", nil)
	if got != `const char * p = "a + b" ;` {
		t.Errorf("got %q", got)
	}
}

func TestPaste(t *testing.T) {
	got := pp(t, "#define CAT(a,b) a##b\nint CAT(foo,bar) = 1;", nil)
	if got != "int foobar = 1 ;" {
		t.Errorf("got %q", got)
	}
}

func TestPasteNumbers(t *testing.T) {
	got := pp(t, "#define CAT(a,b) a##b\nint x = CAT(1,2);", nil)
	if got != "int x = 12 ;" {
		t.Errorf("got %q", got)
	}
}

func TestConditionals(t *testing.T) {
	src := `
#define FOO 1
#if FOO
int yes;
#else
int no;
#endif
#ifdef BAR
int bar;
#endif
#ifndef BAR
int nobar;
#endif
`
	got := pp(t, src, nil)
	if got != "int yes ; int nobar ;" {
		t.Errorf("got %q", got)
	}
}

func TestElif(t *testing.T) {
	src := `
#define V 2
#if V == 1
int one;
#elif V == 2
int two;
#elif V == 3
int three;
#else
int other;
#endif
`
	if got := pp(t, src, nil); got != "int two ;" {
		t.Errorf("got %q", got)
	}
}

func TestNestedConditionals(t *testing.T) {
	src := `
#if 0
#if 1
int a;
#endif
int b;
#else
int c;
#endif
`
	if got := pp(t, src, nil); got != "int c ;" {
		t.Errorf("got %q", got)
	}
}

func TestIfExpression(t *testing.T) {
	tests := []struct {
		cond string
		want bool
	}{
		{"1 + 1 == 2", true},
		{"2 * 3 > 5", true},
		{"defined(FOO)", false},
		{"!defined(FOO)", true},
		{"(1 ? 10 : 20) == 10", true},
		{"UNDEFINED_IDENT", false},
		{"'A' == 65", true},
		{"0x10 == 16", true},
		{"1 << 4 == 16", true},
		{"10 % 3 == 1", true},
		{"-1 < 0", true},
		{"~0 == -1", true},
		// Escapes in character constants (lexer.ParseCharLit).
		{`'\101' == 65 && '\x41' == 65`, true},
		{`'\377' < 0`, true},
		// Every integer type acts as intmax_t or uintmax_t (C11
		// §6.10.1:4): -1 converts to UINTMAX_MAX.
		{"-1 < 0u", false},
		{"0xFFFFFFFFFFFFFFFF == -1", true},
		{"(1 ? -1 : 0u) > 0", true},
		// An operand C does not evaluate may divide by zero.
		{"0 && 1 / 0", false},
		{"1 || 1 / 0", true},
		{"1 ? 2 : 1 / 0", true},
	}
	for _, tt := range tests {
		src := "#if " + tt.cond + "\nint y;\n#endif\n"
		got := pp(t, src, nil)
		want := ""
		if tt.want {
			want = "int y ;"
		}
		if got != want {
			t.Errorf("#if %s: got %q, want %q", tt.cond, got, want)
		}
	}
}

func TestIfDivisionByZero(t *testing.T) {
	_, err := Preprocess("#if 1/0\n#endif\n", "t.c", MapResolver(nil))
	if err == nil {
		t.Error("expected error for division by zero in #if")
	}
}

// TestIfUndefinedEvaluation: an evaluation C leaves undefined makes the
// #if expression an error, as it makes any integer constant expression
// not one.
func TestIfUndefinedEvaluation(t *testing.T) {
	for _, cond := range []string{"1 % 0", "1 << 64", "1 >> -1", "0x7fffffffffffffff + 1", "-(-0x7fffffffffffffff - 1)"} {
		if _, err := Preprocess("#if "+cond+"\n#endif\n", "t.c", MapResolver(nil)); err == nil {
			t.Errorf("#if %s: no error", cond)
		}
	}
}

func TestInclude(t *testing.T) {
	includes := map[string]string{
		"foo.h": "int from_foo;\n",
	}
	got := pp(t, "#include \"foo.h\"\nint after;", includes)
	if got != "int from_foo ; int after ;" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeGuard(t *testing.T) {
	includes := map[string]string{
		"g.h": "#ifndef G_H\n#define G_H\nint once;\n#endif\n",
	}
	got := pp(t, "#include \"g.h\"\n#include \"g.h\"\nint after;", includes)
	if got != "int once ; int after ;" {
		t.Errorf("got %q", got)
	}
}

func TestIncludeNotFound(t *testing.T) {
	_, err := Preprocess("#include \"missing.h\"\n", "t.c", MapResolver(nil))
	if err == nil {
		t.Error("expected error for missing include")
	}
}

func TestSelfIncludeCapped(t *testing.T) {
	includes := map[string]string{"self.h": "#include \"self.h\"\n"}
	_, err := Preprocess("#include \"self.h\"\n", "t.c", MapResolver(includes))
	if err == nil {
		t.Error("expected error for unbounded self-include")
	}
}

func TestErrorDirective(t *testing.T) {
	_, err := Preprocess("#error boom\n", "t.c", MapResolver(nil))
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("got %v", err)
	}
	// But not in a dead branch.
	if _, err := Preprocess("#if 0\n#error boom\n#endif\n", "t.c", MapResolver(nil)); err != nil {
		t.Errorf("dead #error should be skipped: %v", err)
	}
}

func TestUndef(t *testing.T) {
	got := pp(t, "#define X 1\n#undef X\nint y = X;", nil)
	if got != "int y = X ;" {
		t.Errorf("got %q", got)
	}
}

func TestLineMarkers(t *testing.T) {
	out, err := Preprocess("int a;\n\n\nint b;\n", "orig.c", MapResolver(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"orig.c"`) {
		t.Errorf("expected line marker naming orig.c, got:\n%s", out)
	}
}

func TestLineMacro(t *testing.T) {
	got := pp(t, "int x = __LINE__;\nint y = __LINE__;", nil)
	if got != "int x = 1 ; int y = 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestFileMacro(t *testing.T) {
	got := pp(t, "const char *f = __FILE__;", nil)
	if got != `const char * f = "test.c" ;` {
		t.Errorf("got %q", got)
	}
}

func TestVariadicMacro(t *testing.T) {
	got := pp(t, "#define CALL(f, ...) f(__VA_ARGS__)\nint x = CALL(g, 1, 2, 3);", nil)
	if got != "int x = g ( 1 , 2 , 3 ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroArgSpansLines(t *testing.T) {
	got := pp(t, "#define ID(x) x\nint y = ID(1 +\n2);", nil)
	if got != "int y = 1 + 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestContinuationLines(t *testing.T) {
	got := pp(t, "#define LONG 1 + \\\n 2\nint x = LONG;", nil)
	if got != "int x = 1 + 2 ;" {
		t.Errorf("got %q", got)
	}
}

func TestUnterminatedIf(t *testing.T) {
	_, err := Preprocess("#if 1\nint x;\n", "t.c", MapResolver(nil))
	if err == nil {
		t.Error("expected error for unterminated #if")
	}
}

func TestElseWithoutIf(t *testing.T) {
	_, err := Preprocess("#else\n", "t.c", MapResolver(nil))
	if err == nil {
		t.Error("expected error for #else without #if")
	}
}

func TestCmdlineDefine(t *testing.T) {
	p := New(MapResolver(nil))
	for _, d := range []string{"DEBUG=2", "SQ(x)=((x)*(x))", "FLAG", "EMPTY="} {
		if err := p.Define(d); err != nil {
			t.Fatalf("Define(%q): %v", d, err)
		}
	}
	out, err := p.Run("int x = DEBUG + SQ(3) + FLAG EMPTY;", "t.c")
	if err != nil {
		t.Fatal(err)
	}
	if got := normalize(out); got != "int x = 2 + ( ( 3 ) * ( 3 ) ) + 1 ;" {
		t.Errorf("got %q", got)
	}
	if err := p.Define("1X=2"); err == nil {
		t.Error("Define of a non-identifier succeeded")
	}
}

func TestPragmaIgnored(t *testing.T) {
	if got := pp(t, "#pragma pack(1)\nint x;", nil); got != "int x ;" {
		t.Errorf("got %q", got)
	}
}

// TestSpliceInLiteral: a backslash-newline inside a string or character
// literal is cut out, also when it ends the file, and a newline after it
// ends the literal as it would end the spliced line.
func TestSpliceInLiteral(t *testing.T) {
	for src, want := range map[string]string{
		"char *s = \"ab\\\ncd\";": `char * s = "abcd" ;`,
		"\"ab\\\n":                `"ab`,
		"'\\\n":                   `'`,
		"\"ab\\\n\ncd\"":          `"ab cd "`,
	} {
		out, err := Preprocess(src, "t.c", MapResolver(nil))
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := normalize(out); got != want {
			t.Errorf("%q: got %q, want %q", src, got, want)
		}
	}
}

func TestStdcPredefined(t *testing.T) {
	got := pp(t, "#if __STDC__\nint std;\n#endif", nil)
	if got != "int std ;" {
		t.Errorf("got %q", got)
	}
}

func TestDeepConditionalNesting(t *testing.T) {
	src := ""
	for i := 0; i < 20; i++ {
		src += "#if 1\n"
	}
	src += "int deep;\n"
	for i := 0; i < 20; i++ {
		src += "#endif\n"
	}
	if got := pp(t, src, nil); got != "int deep ;" {
		t.Errorf("got %q", got)
	}
}

func TestMacroExpansionInsideArgs(t *testing.T) {
	got := pp(t, "#define A 1\n#define ADD(x, y) ((x) + (y))\nint r = ADD(A, ADD(A, A));", nil)
	if got != "int r = ( ( 1 ) + ( ( ( 1 ) + ( 1 ) ) ) ) ;" {
		t.Errorf("got %q", got)
	}
}

func TestStringizeWithQuotes(t *testing.T) {
	got := pp(t, `#define S(x) #x`+"\n"+`const char *p = S("quoted");`, nil)
	if got != `const char * p = "\"quoted\"" ;` {
		t.Errorf("got %q", got)
	}
}

func TestPasteFormsKeyword(t *testing.T) {
	got := pp(t, "#define K(a,b) a##b\nK(i,nt) x = 3;", nil)
	if got != "int x = 3 ;" {
		t.Errorf("got %q", got)
	}
}

func TestConditionalElifChainLong(t *testing.T) {
	src := `
#define N 7
#if N == 1
int a;
#elif N == 2
int b;
#elif N == 3
int c;
#elif N == 7
int lucky;
#elif N == 8
int d;
#else
int e;
#endif
`
	if got := pp(t, src, nil); got != "int lucky ;" {
		t.Errorf("got %q", got)
	}
}

func TestEmptyMacroArgs(t *testing.T) {
	got := pp(t, "#define WRAP(x) [x]\nint a WRAP() b;", nil)
	if got != "int a [ ] b ;" {
		t.Errorf("got %q", got)
	}
}
