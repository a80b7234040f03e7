package sema

import (
	"strings"
	"testing"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/parser"
	"repro/internal/ub"
)

func check(t *testing.T, src string) *Program {
	t.Helper()
	tu, err := parser.Parse(src, "test.c", ctypes.LP64())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := Check(tu, ctypes.LP64())
	if err != nil {
		t.Fatalf("check(%q): %v", src, err)
	}
	return prog
}

func checkErr(t *testing.T, src string) error {
	t.Helper()
	tu, err := parser.Parse(src, "test.c", ctypes.LP64())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(tu, ctypes.LP64())
	if err == nil {
		t.Fatalf("Check(%q): expected error", src)
	}
	return err
}

func TestSimpleProgram(t *testing.T) {
	prog := check(t, `
int g = 5;
int add(int a, int b) { return a + b; }
int main(void) { return add(g, 2); }
`)
	if len(prog.Globals) != 1 || prog.Globals[0].Name != "g" {
		t.Errorf("globals: %v", prog.Globals)
	}
	if _, ok := prog.Funcs["main"]; !ok {
		t.Error("main not found")
	}
}

func TestUndeclared(t *testing.T) {
	err := checkErr(t, "int main(void) { return x; }")
	if !strings.Contains(err.Error(), "undeclared") {
		t.Errorf("got %v", err)
	}
}

func TestTypeAnnotations(t *testing.T) {
	prog := check(t, `
int main(void) {
	int a = 1;
	long b = 2;
	return (int)(a + b);
}
`)
	body := prog.Funcs["main"].Body.List
	ret := body[2].(*cast.Return)
	cst := ret.X.(*cast.Cast)
	bin := cst.X.(*cast.Binary)
	if bin.T.Kind != ctypes.Long {
		t.Errorf("a + b has type %s, want long", bin.T)
	}
}

func TestLvalueErrors(t *testing.T) {
	for _, src := range []string{
		"int main(void) { 5 = 3; return 0; }",
		"int main(void) { int a; &5; return 0; }",
		"int main(void) { (1+2)++; return 0; }",
		"int main(void) { const int c = 1; c = 2; return 0; }",
		"int main(void) { int a[3]; int b[3]; a = b; return 0; }",
	} {
		checkErr(t, src)
	}
}

func TestCallChecking(t *testing.T) {
	check(t, "int f(int); int main(void) { return f(1); }")
	checkErr(t, "int f(int); int main(void) { return f(1, 2); }")
	checkErr(t, "int f(int); int main(void) { return f(); }")
	check(t, "int f(); int main(void) { return f(1, 2, 3); }")                    // old style: unchecked
	check(t, "int p(const char*, ...); int main(void){ return p(\"x\", 1, 2); }") // variadic
	checkErr(t, "int main(void) { int x; return x(); }")                          // not a function
}

func TestPointerOps(t *testing.T) {
	check(t, `
int main(void) {
	int a[10];
	int *p = a;
	int *q = a + 5;
	long d = q - p;
	if (p < q) return 1;
	if (p == 0) return 2;
	return *p + p[3];
}
`)
	checkErr(t, "int main(void) { int *p; double d; return p + d; }")
	checkErr(t, "int main(void) { int *p; double *q; long x = p - q; return 0; }")
}

func TestStructChecking(t *testing.T) {
	check(t, `
struct point { int x, y; };
int main(void) {
	struct point p = {1, 2};
	struct point *pp = &p;
	return p.x + pp->y;
}
`)
	checkErr(t, "struct s { int a; }; int main(void) { struct s v; return v.b; }")
	checkErr(t, "int main(void) { int x; return x.a; }")
	checkErr(t, "struct s; int main(void) { struct s *p; return p->a; }")
}

func TestStaticUBZeroArray(t *testing.T) {
	prog := check(t, "int a[0];")
	if len(prog.StaticUB) != 1 || prog.StaticUB[0].Behavior != ub.ArrayNotPositive {
		t.Errorf("StaticUB = %v", prog.StaticUB)
	}
}

func TestStaticUBQualifiedFunc(t *testing.T) {
	prog := check(t, "typedef int F(void); const F f;")
	found := false
	for _, e := range prog.StaticUB {
		if e.Behavior == ub.QualifiedFuncType {
			found = true
		}
	}
	if !found {
		t.Errorf("expected QualifiedFuncType diagnostic, got %v", prog.StaticUB)
	}
}

func TestStaticUBVoidValue(t *testing.T) {
	prog := check(t, "int main(void) { if (0) { (int)(void)5; } return 0; }")
	found := false
	for _, e := range prog.StaticUB {
		if e.Behavior == ub.VoidValueUsed {
			found = true
		}
	}
	if !found {
		t.Errorf("expected VoidValueUsed diagnostic, got %v", prog.StaticUB)
	}
}

func TestStaticUBReturnMismatch(t *testing.T) {
	prog := check(t, "int f(void) { return; } int main(void) { return 0; }")
	if len(prog.StaticUB) == 0 {
		t.Error("expected return-without-value diagnostic")
	}
	prog = check(t, "void g(void) { return 5; } int main(void) { return 0; }")
	if len(prog.StaticUB) == 0 {
		t.Error("expected return-with-value diagnostic")
	}
}

func TestInitPlans(t *testing.T) {
	prog := check(t, "int a[3] = {1, 2, 3};")
	d := prog.Globals[0]
	if len(d.Plan) != 3 || !d.ZeroFill {
		t.Fatalf("plan = %v, zerofill = %v", d.Plan, d.ZeroFill)
	}
	if d.Plan[1].Offset != 4 || d.Plan[2].Offset != 8 {
		t.Errorf("offsets: %d, %d", d.Plan[1].Offset, d.Plan[2].Offset)
	}
}

func TestInitUnsizedArray(t *testing.T) {
	prog := check(t, "int a[] = {1, 2, 3, 4};")
	if prog.Globals[0].Type.ArrayLen != 4 {
		t.Errorf("completed length = %d", prog.Globals[0].Type.ArrayLen)
	}
	prog = check(t, `char s[] = "hello";`)
	if prog.Globals[0].Type.ArrayLen != 6 {
		t.Errorf("string array length = %d", prog.Globals[0].Type.ArrayLen)
	}
}

func TestInitDesignators(t *testing.T) {
	prog := check(t, "int a[5] = {[2] = 7, [4] = 9};")
	d := prog.Globals[0]
	if len(d.Plan) != 2 {
		t.Fatalf("plan = %v", d.Plan)
	}
	if d.Plan[0].Offset != 8 || d.Plan[1].Offset != 16 {
		t.Errorf("offsets: %d, %d", d.Plan[0].Offset, d.Plan[1].Offset)
	}
	prog = check(t, "struct s { int x, y; }; struct s v = {.y = 2};")
	if prog.Globals[0].Plan[0].Offset != 4 {
		t.Errorf("y offset = %d", prog.Globals[0].Plan[0].Offset)
	}
}

func TestInitNested(t *testing.T) {
	prog := check(t, "int m[2][2] = {{1, 2}, {3, 4}};")
	if len(prog.Globals[0].Plan) != 4 {
		t.Fatalf("plan = %v", prog.Globals[0].Plan)
	}
	// Flattened form.
	prog = check(t, "int m[2][2] = {1, 2, 3, 4};")
	if len(prog.Globals[0].Plan) != 4 {
		t.Fatalf("flattened plan = %v", prog.Globals[0].Plan)
	}
	if prog.Globals[0].Plan[3].Offset != 12 {
		t.Errorf("last offset = %d", prog.Globals[0].Plan[3].Offset)
	}
}

func TestInitStructInArray(t *testing.T) {
	prog := check(t, `
struct kv { int k; int v; };
struct kv table[2] = {{1, 10}, {2, 20}};
`)
	if len(prog.Globals[0].Plan) != 4 {
		t.Fatalf("plan = %+v", prog.Globals[0].Plan)
	}
	if prog.Globals[0].Plan[2].Offset != 8 {
		t.Errorf("second element offset = %d", prog.Globals[0].Plan[2].Offset)
	}
}

func TestInitErrors(t *testing.T) {
	for _, src := range []string{
		"int a[2] = {1, 2, 3};",
		"struct s { int x; }; struct s v = {1, 2};",
		`char s[2] = "hello";`,
		"int a[3] = {[5] = 1};",
	} {
		checkErr(t, src)
	}
}

func TestSwitchChecking(t *testing.T) {
	prog := check(t, `
int main(void) {
	switch (2) {
	case 1: return 1;
	case 2: return 2;
	default: return 0;
	}
}
`)
	var sw *cast.Switch
	for _, s := range prog.Funcs["main"].Body.List {
		if s2, ok := s.(*cast.Switch); ok {
			sw = s2
		}
	}
	if sw == nil || len(sw.Cases) != 2 || sw.Dflt == nil {
		t.Fatalf("switch: %+v", sw)
	}
	if sw.Cases[1].Value != 2 {
		t.Errorf("case value = %d", sw.Cases[1].Value)
	}
	checkErr(t, "int main(void) { switch (1) { case 1: case 1: return 0; } }")
	checkErr(t, "int main(void) { case 1: return 0; }")
}

func TestGotoChecking(t *testing.T) {
	check(t, "int main(void) { goto done; done: return 0; }")
	checkErr(t, "int main(void) { goto nowhere; return 0; }")
	checkErr(t, "int main(void) { x: ; x: return 0; }")
}

func TestBreakContinueChecking(t *testing.T) {
	checkErr(t, "int main(void) { break; }")
	checkErr(t, "int main(void) { continue; }")
	check(t, "int main(void) { while (1) { break; } return 0; }")
}

func TestRedeclaration(t *testing.T) {
	check(t, "int f(int); int f(int x) { return x; }")
	check(t, "extern int g; int g = 5;")
	checkErr(t, "int f(int); long f(int x) { return x; }")
	checkErr(t, "int f(void) { return 0; } int f(void) { return 1; }")
	checkErr(t, "int x; long x;")
}

func TestSelfRefInit(t *testing.T) {
	// `int x = x;` must resolve to the new x (whose value is
	// indeterminate — the dynamic checker's problem, not ours).
	prog := check(t, "int main(void) { int x = x; return x; }")
	ds := prog.Funcs["main"].Body.List[0].(*cast.DeclStmt)
	init := ds.Decls[0].Plan[0].Expr.(*cast.Ident)
	if init.Sym != ds.Decls[0].Sym {
		t.Error("x in initializer should resolve to the new declaration")
	}
}

func TestCondType(t *testing.T) {
	prog := check(t, "int main(void) { return 1 ? 2 : 3.0 > 2 ? 1 : 0; }")
	_ = prog
	prog = check(t, "int main(void) { long l = 1 ? 1 : 2L; return (int)l; }")
	_ = prog
}

func TestCompoundAssign(t *testing.T) {
	check(t, `
int main(void) {
	int x = 1;
	x += 2; x -= 1; x *= 3; x /= 2; x %= 5;
	x <<= 1; x >>= 1; x &= 7; x |= 8; x ^= 15;
	int *p = &x;
	p += 1; p -= 1;
	return x;
}
`)
	checkErr(t, "int main(void) { int *p; p *= 2; return 0; }")
}

func TestVLAChecking(t *testing.T) {
	check(t, "void f(int n) { int a[n]; a[0] = 1; }")
	checkErr(t, "int n; int a[n];") // file-scope VLA — parser makes it VLA, sema rejects
}

func TestSizeofChecks(t *testing.T) {
	check(t, "int main(void) { return (int)(sizeof(int) + sizeof(long)); }")
	checkErr(t, "struct s; int main(void) { return (int)sizeof(struct s); }")
	checkErr(t, "void f(void); int main(void) { return (int)sizeof(f); }")
}

func TestGotoIntoVLAScope(t *testing.T) {
	// C11 §6.8.6.1:1: a jump must not enter the scope of a variably
	// modified declaration.
	prog := check(t, `
int main(void) {
	int n = 2;
	goto skip;
	{
		int a[n];
		a[0] = 0;
skip:		;
	}
	return 0;
}
`)
	found := false
	for _, e := range prog.StaticUB {
		if e.Behavior == ub.GotoIntoVLAScope {
			found = true
		}
	}
	if !found {
		t.Errorf("expected GotoIntoVLAScope, got %v", prog.StaticUB)
	}
	// A goto within the VLA's own block does not enter its scope.
	prog = check(t, `
int main(void) {
	int n = 2;
	{
		int a[n];
		a[0] = 0;
		goto skip;
skip:		;
	}
	return 0;
}
`)
	for _, e := range prog.StaticUB {
		if e.Behavior == ub.GotoIntoVLAScope {
			t.Errorf("false positive: %v", e)
		}
	}
	// Jumping forward in a block before any VLA is fine too.
	prog = check(t, `
int main(void) {
	goto out;
out:
	return 0;
}
`)
	for _, e := range prog.StaticUB {
		if e.Behavior == ub.GotoIntoVLAScope {
			t.Errorf("false positive without VLA: %v", e)
		}
	}
}

func TestFlexibleArrayMemberIsDiagnosedNotCrash(t *testing.T) {
	// struct s { int n; int a[]; } passes IsComplete (only forward
	// declarations set Incomplete) but has no computable layout. Every
	// site that needs its storage must produce a diagnostic — these
	// programs used to panic deep inside ctypes layout.
	cases := []struct {
		name, src, want string
	}{
		{"local var", `
struct s { int n; int a[]; };
int main(void) { struct s x; x.n = 1; return 0; }`, `variable "x"`},
		{"file-scope var", `
struct s { int n; int a[]; };
struct s g;
int main(void) { return 0; }`, `variable "g"`},
		{"sizeof type", `
struct s { int n; int a[]; };
int main(void) { return sizeof(struct s); }`, "sizeof"},
		{"parameter", `
struct s { int n; int a[]; };
int f(struct s p) { return p.n; }
int main(void) { return 0; }`, `parameter "p"`},
		{"array of FAM structs", `
struct s { int n; int a[]; };
int main(void) { struct s v[4]; return 0; }`, `variable "v"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := checkErr(t, tc.src)
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("diagnostic %q does not mention %q", err, tc.want)
			}
			if !strings.Contains(err.Error(), "incomplete array") {
				t.Errorf("diagnostic %q does not explain the layout failure", err)
			}
		})
	}
}

func TestProgramFileIsSet(t *testing.T) {
	prog := check(t, `int main(void) { return 0; }`)
	if prog.File != "test.c" {
		t.Errorf("Program.File = %q, want test.c", prog.File)
	}
}

// blockDecls collects the block-scope declarations of a statement tree.
func blockDecls(s cast.Stmt, out *[]*cast.Decl) {
	switch s := s.(type) {
	case *cast.DeclStmt:
		*out = append(*out, s.Decls...)
	case *cast.Compound:
		for _, inner := range s.List {
			blockDecls(inner, out)
		}
	case *cast.If:
		blockDecls(s.Then, out)
		if s.Else != nil {
			blockDecls(s.Else, out)
		}
	case *cast.While:
		blockDecls(s.Body, out)
	case *cast.DoWhile:
		blockDecls(s.Body, out)
	case *cast.For:
		if s.Init != nil {
			blockDecls(s.Init, out)
		}
		blockDecls(s.Body, out)
	case *cast.Switch:
		blockDecls(s.Body, out)
	case *cast.Label:
		blockDecls(s.Stmt, out)
	case *cast.Case:
		blockDecls(s.Stmt, out)
	case *cast.Default:
		blockDecls(s.Stmt, out)
	}
}

// TestFrameSlots: sema numbers every parameter and block-scope object of a
// function, static ones included, with its own slot in 1..NumSlots —
// shadowed names and VLAs too — and leaves slot 0 to file-scope objects,
// functions, and block-scope extern and function declarations.
func TestFrameSlots(t *testing.T) {
	prog := check(t, `
int g;
int f(int a, int b) {
	int x = a;
	static int calls;
	extern int g;
	int h(int);
	{
		int x = b;
		char vla[a];
		for (int i = 0; i < 2; i++) { int x = i; calls += x; }
		x += vla[0];
	}
	return x + calls + g;
}
int main(void) { int x = 1; return f(x, 2); }
`)
	wantSlotted := map[string]int{"f": 8, "main": 1} // a b x calls x vla i x; x
	for name, fd := range prog.Funcs {
		var decls []*cast.Decl
		blockDecls(fd.Body, &decls)
		seen := map[int]string{}
		take := func(sym *cast.Symbol) {
			if sym.Slot < 1 || sym.Slot > fd.NumSlots {
				t.Errorf("%s: %s has slot %d, want 1..%d", name, sym.Name, sym.Slot, fd.NumSlots)
				return
			}
			if prev, dup := seen[sym.Slot]; dup {
				t.Errorf("%s: %s and %s share slot %d", name, prev, sym.Name, sym.Slot)
			}
			seen[sym.Slot] = sym.Name
		}
		for _, p := range fd.Params {
			take(p)
		}
		for _, d := range decls {
			if d.Storage == cast.SExtern || d.Sym.Kind == cast.SymFunc {
				if d.Sym.Slot != 0 {
					t.Errorf("%s: %s (extern or function) has slot %d, want 0", name, d.Name, d.Sym.Slot)
				}
				continue
			}
			take(d.Sym)
		}
		if len(seen) != wantSlotted[name] || fd.NumSlots != wantSlotted[name] {
			t.Errorf("%s: %d slotted symbols, NumSlots %d, want %d", name, len(seen), fd.NumSlots, wantSlotted[name])
		}
		if fd.Sym.Slot != 0 {
			t.Errorf("function %s has slot %d, want 0", name, fd.Sym.Slot)
		}
	}
	for name, sym := range prog.Symbols {
		if sym.Slot != 0 {
			t.Errorf("file-scope %s has slot %d, want 0", name, sym.Slot)
		}
	}
}
