package parser

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/ctypes"
)

func parse(t *testing.T, src string) *cast.TranslationUnit {
	t.Helper()
	tu, err := Parse(src, "test.c", ctypes.LP64())
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return tu
}

func parseErr(t *testing.T, src string) error {
	t.Helper()
	_, err := Parse(src, "test.c", ctypes.LP64())
	if err == nil {
		t.Fatalf("Parse(%q): expected error", src)
	}
	return err
}

func TestSimpleDecl(t *testing.T) {
	tu := parse(t, "int x;")
	if len(tu.Decls) != 1 {
		t.Fatalf("decls = %d", len(tu.Decls))
	}
	d := tu.Decls[0]
	if d.Name != "x" || d.Type.Kind != ctypes.Int {
		t.Errorf("got %s %s", d.Type, d.Name)
	}
}

func TestDeclaratorTypes(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{"int x;", "int"},
		{"int *p;", "int*"},
		{"int **pp;", "int**"},
		{"int a[10];", "int[10]"},
		{"int a[2][3];", "int[2][3]"},
		{"int *a[4];", "int*[4]"},
		{"int (*pa)[4];", "int[4]*"},
		{"int f(void);", "int()"},
		{"int f(int, char);", "int(int, char)"},
		{"int (*fp)(void);", "int()*"},
		{"int (*fa[3])(void);", "int()*[3]"},
		{"char *strchr(const char *s, int c);", "char*(const char*, int)"},
		{"unsigned long long x;", "unsigned long long"},
		{"const int c;", "const int"},
		{"int f(int a[]);", "int(int*)"},
		{"int f(int g(void));", "int(int()*)"},
		{"void (*signalfn(int, void (*)(int)))(int);", "void(int)*(int, void(int)*)"},
		{"int printf(const char *fmt, ...);", "int(const char*, ...)"},
	}
	for _, tt := range tests {
		tu := parse(t, tt.src)
		if len(tu.Decls) != 1 {
			t.Errorf("%q: %d decls", tt.src, len(tu.Decls))
			continue
		}
		if got := tu.Decls[0].Type.String(); got != tt.want {
			t.Errorf("%q: type = %q, want %q", tt.src, got, tt.want)
		}
	}

	// The same derivations spelled out in full: where each qualifier
	// sits, array lengths, and prototype versus old-style parameter lists.
	shapes := []struct{ src, want string }{
		{"int (*(*fp)(int))[3];", "ptr to func(int) returning ptr to array[3] of int"},
		{"void (*signal(int, void (*)(int)))(int);",
			"func(int, ptr to func(int) returning void) returning ptr to func(int) returning void"},
		{"char *(*a[2])(void);", "array[2] of ptr to func(void) returning ptr to char"},
		{"int (*p)[4];", "ptr to array[4] of int"},
		{"int a[2][3];", "array[2] of array[3] of int"},
		{"int *const *volatile q;", "volatile ptr to const ptr to int"},
		{"int (*const r)();", "const ptr to func() returning int"},
		{"int f(int a[3], int g(void), ...);", "func(ptr to int, ptr to func(void) returning int, ...) returning int"},
		{"int ((*(g))[2])[5];", "ptr to array[2] of array[5] of int"},
		{"extern int e[];", "array[] of int"},
	}
	for _, tt := range shapes {
		tu := parse(t, tt.src)
		if got := shape(tu.Decls[0].Type); got != tt.want {
			t.Errorf("%q: shape = %q, want %q", tt.src, got, tt.want)
		}
	}

	// Abstract declarators: the operand type of sizeof and the target
	// type of a cast.
	abstract := []struct{ src, want string }{
		{"unsigned long s = sizeof(int (*(*)(int))[3]);", "ptr to func(int) returning ptr to array[3] of int"},
		{"unsigned long s = sizeof(char *[2]);", "array[2] of ptr to char"},
		{"unsigned long s = sizeof(int (*[2])[4]);", "array[2] of ptr to array[4] of int"},
		{"int (*q)(int) = (int (*)(int))0;", "ptr to func(int) returning int"},
		{"void *v = (void (*(*)(void))(long))0;", "ptr to func(void) returning ptr to func(long) returning void"},
	}
	for _, tt := range abstract {
		tu := parse(t, tt.src)
		var got *ctypes.Type
		switch e := tu.Decls[0].Init.(type) {
		case *cast.SizeofType:
			got = e.Of
		case *cast.Cast:
			got = e.To
		default:
			t.Fatalf("%q: initializer is %T", tt.src, e)
		}
		if s := shape(got); s != tt.want {
			t.Errorf("%q: shape = %q, want %q", tt.src, s, tt.want)
		}
	}

	// Invalid derivations and variable dimensions, with the position
	// each is reported at.
	errs := []struct{ src, want string }{
		{"int f[3](void);", "test.c:1:6: array of functions"},
		{"int g(void)(void);", "test.c:1:6: function returning function"},
		{"int h(void)[3];", "test.c:1:6: function returning array"},
		{"int (*k)(void)(int);", "test.c:1:9: function returning function"},
		{"int (*m[2])(void)[3];", "test.c:1:12: function returning array"},
		{"int n(void)[2](int);", "test.c:1:12: array of functions"},
		{"unsigned long s = sizeof(int [2](void));", "test.c:1:30: array of functions"},
		{"void f(int n) { int a[2][n]; }", "test.c:1:25: only the outermost array dimension may be variable"},
		{"void f(int n) { int a[n][n]; }", "test.c:1:25: only the outermost array dimension may be variable"},
		{"void f(int n) { int b(void)[n]; }", "test.c:1:28: only the outermost array dimension may be variable"},
		{"void f(int n) { int (*p[n]); }", "test.c:1:27: variable length array in grouped declarator is not supported"},
		{"void f(int n) { unsigned long s = sizeof(int [n]); }", "test.c:1:46: variable length array in type name is not supported"},
	}
	for _, tt := range errs {
		if got := parseErr(t, tt.src).Error(); got != tt.want {
			t.Errorf("%q: error = %q, want %q", tt.src, got, tt.want)
		}
	}
}

// shape spells out t's derivations outermost first, each with its own
// qualifiers.
func shape(t *ctypes.Type) string {
	q := ""
	if t.Qual != 0 {
		q = t.Qual.String() + " "
	}
	switch t.Kind {
	case ctypes.Ptr:
		return q + "ptr to " + shape(t.Elem)
	case ctypes.Array:
		n := ""
		if t.ArrayLen >= 0 {
			n = strconv.FormatInt(t.ArrayLen, 10)
		}
		return q + "array[" + n + "] of " + shape(t.Elem)
	case ctypes.Func:
		var ps []string
		for _, p := range t.Params {
			ps = append(ps, shape(p.Type))
		}
		if t.Variadic {
			ps = append(ps, "...")
		}
		if len(ps) == 0 && !t.OldStyle {
			ps = append(ps, "void")
		}
		return q + "func(" + strings.Join(ps, ", ") + ") returning " + shape(t.Elem)
	}
	return t.String()
}

// TestLexErrorBeatsParseError pins which diagnostic a unit with both
// kinds of error reports: the lexical one, wherever it is, and an
// unexpected end of file at the last token's position.
func TestLexErrorBeatsParseError(t *testing.T) {
	tests := []struct{ src, want string }{
		{"int x = ;\nint y;\nint z = @;\n", `test.c:3:9: unexpected character "@"`},
		{"int x;\nint y;\n@\n", `test.c:3:1: unexpected character "@"`},
		{"int x = ;\n/* open", "test.c:2:1: unterminated block comment"},
		{"int main(void) {\n  return 0;\n", "test.c:2:11: unterminated block"},
		{"int x", "test.c:1:5: expected ;, found EOF"},
		{"", ""},
	}
	for _, tt := range tests {
		_, err := Parse(tt.src, "test.c", ctypes.LP64())
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tt.want {
			t.Errorf("%q: error = %q, want %q", tt.src, got, tt.want)
		}
	}
}

func TestTypedef(t *testing.T) {
	tu := parse(t, "typedef int myint; myint x; typedef myint *pint; pint p;")
	if len(tu.Decls) != 2 {
		t.Fatalf("decls = %d", len(tu.Decls))
	}
	if tu.Decls[0].Type.Kind != ctypes.Int {
		t.Errorf("x: %s", tu.Decls[0].Type)
	}
	if tu.Decls[1].Type.String() != "int*" {
		t.Errorf("p: %s", tu.Decls[1].Type)
	}
}

func TestTypedefShadowing(t *testing.T) {
	// Inside f, `T` is an ordinary variable; `T * x` is multiplication.
	src := `
typedef int T;
int f(void) {
	int T = 2, x = 3;
	return T * x;
}
T g;
`
	tu := parse(t, src)
	if len(tu.Funcs) != 1 || len(tu.Decls) != 1 {
		t.Fatalf("funcs=%d decls=%d", len(tu.Funcs), len(tu.Decls))
	}
	if tu.Decls[0].Type.Kind != ctypes.Int {
		t.Errorf("g: %s", tu.Decls[0].Type)
	}
}

func TestStruct(t *testing.T) {
	tu := parse(t, "struct point { int x; int y; }; struct point p;")
	d := tu.Decls[0]
	if d.Type.Kind != ctypes.Struct || d.Type.Tag != "point" {
		t.Fatalf("type = %s", d.Type)
	}
	if len(d.Type.Fields) != 2 {
		t.Errorf("fields = %d", len(d.Type.Fields))
	}
}

func TestStructSelfReference(t *testing.T) {
	tu := parse(t, "struct node { int v; struct node *next; }; struct node n;")
	ty := tu.Decls[0].Type
	if ty.Fields[1].Type.Kind != ctypes.Ptr || ty.Fields[1].Type.Elem != ty {
		t.Errorf("next should point to the same struct type")
	}
}

func TestAnonymousStructMember(t *testing.T) {
	tu := parse(t, "struct s { int a; struct { int b; int c; }; } v;")
	ty := tu.Decls[0].Type
	f, ok := ctypes.LP64().FieldByName(ty, "b")
	if !ok {
		t.Fatal("field b not found through anonymous member")
	}
	if f.Offset != 4 {
		t.Errorf("offset of b = %d, want 4", f.Offset)
	}
}

func TestUnion(t *testing.T) {
	tu := parse(t, "union u { int i; char c[4]; } v;")
	if tu.Decls[0].Type.Kind != ctypes.Union {
		t.Errorf("type = %s", tu.Decls[0].Type)
	}
}

func TestEnum(t *testing.T) {
	tu := parse(t, "enum color { RED, GREEN = 5, BLUE }; int x[BLUE];")
	ty := tu.Decls[0].Type
	if ty.Kind != ctypes.Array || ty.ArrayLen != 6 {
		t.Errorf("x: %s (BLUE should be 6)", ty)
	}
}

func TestBitfields(t *testing.T) {
	tu := parse(t, "struct flags { unsigned a : 3; unsigned b : 5; } f;")
	ty := tu.Decls[0].Type
	if !ty.Fields[0].BitField || ty.Fields[0].BitWidth != 3 {
		t.Errorf("field a: %+v", ty.Fields[0])
	}
}

func TestFunctionDef(t *testing.T) {
	tu := parse(t, "int add(int a, int b) { return a + b; }")
	if len(tu.Funcs) != 1 {
		t.Fatalf("funcs = %d", len(tu.Funcs))
	}
	f := tu.Funcs[0]
	if f.Name != "add" || len(f.Params) != 2 || f.Params[0].Name != "a" {
		t.Errorf("func %s params %v", f.Name, f.Params)
	}
	if len(f.Body.List) != 1 {
		t.Errorf("body has %d stmts", len(f.Body.List))
	}
}

func TestStatements(t *testing.T) {
	src := `
void f(int n) {
	int i;
	if (n > 0) n--; else n++;
	while (n) { n--; }
	do { n++; } while (n < 3);
	for (i = 0; i < 10; i++) { if (i == 5) break; else continue; }
	for (int j = 0; j < 2; j++) ;
	switch (n) { case 1: n = 2; break; default: n = 0; }
	goto end;
end:
	return;
}
`
	tu := parse(t, src)
	if len(tu.Funcs) != 1 {
		t.Fatal("expected one function")
	}
}

func TestExpressions(t *testing.T) {
	srcs := []string{
		"int x = 1 + 2 * 3;",
		"int y = (1 + 2) * 3;",
		"int z = 1 < 2 ? 3 : 4;",
		"int w = sizeof(int);",
		"int v = sizeof(long long);",
		"char c = 'a';",
		"int neg = -5;",
		"int b = !0 && 1 || 0;",
		"int sh = 1 << 4 >> 2;",
		"unsigned u = 5u % 3u & 0xFF;",
	}
	for _, src := range srcs {
		parse(t, src)
	}
}

func TestPrecedence(t *testing.T) {
	tu := parse(t, "int x = 2 + 3 * 4;")
	b, ok := tu.Decls[0].Init.(*cast.Binary)
	if !ok || b.Op != cast.BAdd {
		t.Fatalf("top op: %T", tu.Decls[0].Init)
	}
	inner, ok := b.Y.(*cast.Binary)
	if !ok || inner.Op != cast.BMul {
		t.Fatalf("inner: %T", b.Y)
	}
}

func TestCastVsParen(t *testing.T) {
	// (T)(x) is a cast; (f)(x) is a call.
	src := `
typedef int T;
int f(int);
void g(void) {
	int a = (T)(5);
	int b = (f)(5);
}
`
	parse(t, src)
}

func TestCompoundLiteral(t *testing.T) {
	tu := parse(t, "struct p { int x, y; }; void f(void) { struct p q = (struct p){1, 2}; }")
	_ = tu
}

func TestInitializers(t *testing.T) {
	srcs := []string{
		"int a[3] = {1, 2, 3};",
		"int a[] = {1, 2, 3};",
		"int m[2][2] = {{1,2},{3,4}};",
		"struct s { int x, y; }; struct s v = {1, 2};",
		"struct s2 { int x, y; }; struct s2 v2 = {.y = 2, .x = 1};",
		"int d[5] = {[2] = 7, [4] = 9};",
		`char s[] = "hello";`,
		"int x = {5};",
	}
	for _, src := range srcs {
		parse(t, src)
	}
}

func TestStringConcat(t *testing.T) {
	tu := parse(t, `char s[] = "foo" "bar";`)
	lit, ok := tu.Decls[0].Init.(*cast.StringLit)
	if !ok || string(lit.Value) != "foobar" {
		t.Fatalf("init: %#v", tu.Decls[0].Init)
	}
}

func TestStaticAssert(t *testing.T) {
	parse(t, `_Static_assert(sizeof(int) == 4, "int is 4 bytes");`)
	err := parseErr(t, `_Static_assert(sizeof(int) == 8, "nope");`)
	if err == nil {
		t.Fatal("expected failure")
	}
}

func TestIntLitTypes(t *testing.T) {
	tu := parse(t, "void f(void) { 2147483647; }")
	_ = tu
	tests := []struct {
		src  string
		want ctypes.Kind
	}{
		{"int a = 5;", ctypes.Int},
		{"long b = 5000000000;", ctypes.Long}, // doesn't fit int
		{"unsigned c = 4000000000u;", ctypes.UInt},
		{"long d = 0x80000000;", ctypes.UInt}, // hex may go unsigned
		{"long long e = 5ll;", ctypes.LongLong},
	}
	for _, tt := range tests {
		tu := parse(t, tt.src)
		lit, ok := tu.Decls[0].Init.(*cast.IntLit)
		if !ok {
			t.Errorf("%q: init is %T", tt.src, tu.Decls[0].Init)
			continue
		}
		if lit.T.Kind != tt.want {
			t.Errorf("%q: literal type %v, want %v", tt.src, lit.T.Kind, tt.want)
		}
	}
}

func TestVLA(t *testing.T) {
	tu := parse(t, "void f(int n) { int a[n]; }")
	ds := tu.Funcs[0].Body.List[0].(*cast.DeclStmt)
	d := ds.Decls[0]
	if !d.Type.VLA || d.VLASize == nil {
		t.Errorf("expected VLA with size expr, got %s (vla=%v, expr=%v)", d.Type, d.Type.VLA, d.VLASize)
	}
}

func TestZeroArray(t *testing.T) {
	// Parses fine; sema flags it (ArrayNotPositive).
	tu := parse(t, "int a[0];")
	if tu.Decls[0].Type.ArrayLen != 0 {
		t.Errorf("len = %d", tu.Decls[0].Type.ArrayLen)
	}
}

func TestErrors(t *testing.T) {
	srcs := []string{
		"int;",                     // hmm — this is accepted as tag-less decl? see below
		"int x",                    // missing semicolon
		"int x = ;",                // missing initializer
		"void f( { }",              // bad params
		"int f(void) { return 0 }", // missing semicolon
		"struct { };",              // no members
		"int x = 1 +;",             // bad expression
		"unsigned signed x;",       // bad specifier combo
		"long long long x;",        // too many longs
		"typedef int T = 5;",       // initialized typedef
	}
	for _, src := range srcs[1:] {
		parseErr(t, src)
	}
}

func TestOldStyleFunc(t *testing.T) {
	tu := parse(t, "int f(); int g(void) { return f(1, 2); }")
	if !tu.Decls[0].Type.OldStyle {
		t.Error("f() should be old-style")
	}
}

func TestQualifiedFuncParse(t *testing.T) {
	// `typedef int F(void); const F f;` — qualified function type, UB
	// §6.7.3:9 — must at least parse.
	parse(t, "typedef int F(void); F f;")
}

func TestCommaInDecl(t *testing.T) {
	tu := parse(t, "int a = 1, *p, b[2];")
	if len(tu.Decls) != 3 {
		t.Fatalf("decls = %d", len(tu.Decls))
	}
	if tu.Decls[1].Type.String() != "int*" || tu.Decls[2].Type.String() != "int[2]" {
		t.Errorf("types: %s, %s", tu.Decls[1].Type, tu.Decls[2].Type)
	}
}

func TestPostfixChain(t *testing.T) {
	parse(t, `
struct s { int a[3]; struct s *next; };
int f(struct s *p) { return p->next->a[1]++; }
`)
}

func TestSizeofExprForm(t *testing.T) {
	tu := parse(t, "void f(void) { int x; sizeof x; sizeof(x); sizeof x + 1; }")
	_ = tu
}

func TestNestedFunctionPointerTypedef(t *testing.T) {
	parse(t, `
typedef void (*handler)(int);
handler table[10];
void install(int sig, handler h) { table[sig] = h; }
`)
}

func TestLabelNamedLikeType(t *testing.T) {
	parse(t, `
typedef int T;
void f(void) {
T:	goto T;
}
`)
}

func TestAbstractDeclaratorEdgeCases(t *testing.T) {
	srcs := []string{
		"int f(int (*)(void));", // unnamed fn-pointer param
		"int g(int (*arr)[5]);", // pointer-to-array param
		"unsigned long h(const void *, unsigned long);",
		"void k(int, ...);",    // unnamed + variadic
		"int m(char *argv[]);", // array-of-pointer param decays
	}
	for _, src := range srcs {
		parse(t, src)
	}
}

func TestDeclaratorPrecedenceMix(t *testing.T) {
	// Array of pointers to functions returning pointer to int.
	tu := parse(t, "int *(*table[4])(void);")
	want := "int*()*[4]"
	if got := tu.Decls[0].Type.String(); got != want {
		t.Errorf("type = %q, want %q", got, want)
	}
}

func TestEmptyStatements(t *testing.T) {
	parse(t, "int main(void) { ;;; for (;;) break; while (1) { break; } return 0; }")
}

func TestCharSubscriptAndSwap(t *testing.T) {
	parse(t, `
int main(void) {
	char s[4] = "abc";
	int i = 0;
	s[i] = s[i + 1];
	1[s] = 'x'; /* i[a] form */
	return 0;
}
`)
}

func TestConstPointerVariants(t *testing.T) {
	tests := []struct{ src, want string }{
		{"const int *p;", "const int*"},
		{"int *const q = 0;", "const int*"}, // top-level const on the pointer
		{"const int *const r = 0;", "const const int*"},
	}
	for _, tt := range tests {
		tu := parse(t, tt.src)
		if got := tu.Decls[0].Type.String(); got != tt.want {
			t.Errorf("%q: type = %q, want %q", tt.src, got, tt.want)
		}
	}
}
