package interp_test

import (
	"testing"

	undefc "repro"
	"repro/internal/interp"
	"repro/internal/ub"
)

// run compiles and executes src, failing the test on compile errors.
func run(t *testing.T, src string) undefc.Result {
	t.Helper()
	res := undefc.RunSource(src, "test.c", undefc.Options{})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	return res
}

// expectOK runs src and asserts it is free of (detected) undefined behavior.
func expectOK(t *testing.T, src string, wantExit int, wantOut string) {
	t.Helper()
	res := run(t, src)
	if res.UB != nil {
		t.Fatalf("unexpected UB: %v", res.UB)
	}
	if res.ExitCode != wantExit {
		t.Errorf("exit = %d, want %d", res.ExitCode, wantExit)
	}
	if wantOut != "" && res.Output != wantOut {
		t.Errorf("output = %q, want %q", res.Output, wantOut)
	}
}

// expectUB runs src and asserts the given undefined behavior is detected.
func expectUB(t *testing.T, src string, want *ub.Behavior) {
	t.Helper()
	res := undefc.RunSource(src, "test.c", undefc.Options{})
	if res.Err != nil {
		t.Fatalf("run failed: %v", res.Err)
	}
	if res.UB == nil {
		t.Fatalf("expected UB %s, program ran fine (exit %d, output %q)",
			want.Desc, res.ExitCode, res.Output)
	}
	if res.UB.Behavior != want {
		t.Fatalf("detected %v, want %s", res.UB, want.Desc)
	}
}

// ---------- positive semantics (defined programs) ----------

func TestHelloWorld(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
int main(void) {
	printf("Hello world\n");
	return 0;
}
`, 0, "Hello world\n")
}

func TestArithmetic(t *testing.T) {
	expectOK(t, `
int main(void) {
	int a = 6, b = 7;
	return a * b - 2;  /* 40 */
}
`, 40, "")
}

func TestLoops(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
int main(void) {
	int sum = 0;
	for (int i = 1; i <= 10; i++) sum += i;
	printf("%d\n", sum);
	int n = 0;
	while (n < 3) n++;
	do { n--; } while (n > 0);
	return n;
}
`, 0, "55\n")
}

func TestRecursion(t *testing.T) {
	expectOK(t, `
int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
int main(void) { return fib(10); } /* 55 */
`, 55, "")
}

func TestPointers(t *testing.T) {
	expectOK(t, `
int main(void) {
	int x = 5;
	int *p = &x;
	*p = 7;
	int **pp = &p;
	**pp += 1;
	return x; /* 8 */
}
`, 8, "")
}

func TestArrays(t *testing.T) {
	expectOK(t, `
int main(void) {
	int a[5] = {1, 2, 3, 4, 5};
	int sum = 0;
	for (int i = 0; i < 5; i++) sum += a[i];
	int *p = a;
	sum += *(p + 2);
	return sum; /* 18 */
}
`, 18, "")
}

func TestStrings(t *testing.T) {
	expectOK(t, `
#include <string.h>
#include <stdio.h>
int main(void) {
	char buf[32];
	strcpy(buf, "hello");
	strcat(buf, " world");
	printf("%s %d\n", buf, (int)strlen(buf));
	return strcmp(buf, "hello world");
}
`, 0, "hello world 11\n")
}

func TestStructs(t *testing.T) {
	expectOK(t, `
struct point { int x, y; };
struct point mk(int x, int y) { struct point p; p.x = x; p.y = y; return p; }
int main(void) {
	struct point a = mk(3, 4);
	struct point b = a;        /* struct copy */
	b.x = 10;
	return a.x + a.y + b.x;    /* 3+4+10 = 17 */
}
`, 17, "")
}

func TestUnions(t *testing.T) {
	expectOK(t, `
union u { unsigned char c[4]; unsigned int i; };
int main(void) {
	union u v;
	v.i = 0x01020304u;
	return v.c[0]; /* little endian: 4 */
}
`, 4, "")
}

func TestMalloc(t *testing.T) {
	expectOK(t, `
#include <stdlib.h>
int main(void) {
	int *p = malloc(10 * sizeof(int));
	if (!p) return 1;
	for (int i = 0; i < 10; i++) p[i] = i * i;
	int v = p[7];
	free(p);
	return v; /* 49 */
}
`, 49, "")
}

func TestSwitch(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
int classify(int n) {
	switch (n) {
	case 0: return 100;
	case 1:
	case 2: return 200;
	case 3: { int x = 5; return 300 + x; }
	default: return 400;
	}
}
int main(void) {
	printf("%d %d %d %d %d\n", classify(0), classify(1), classify(2), classify(3), classify(9));
	return 0;
}
`, 0, "100 200 200 305 400\n")
}

func TestSwitchFallthrough(t *testing.T) {
	expectOK(t, `
int main(void) {
	int r = 0;
	switch (1) {
	case 1: r += 1;
	case 2: r += 10;
	case 3: r += 100; break;
	case 4: r += 1000;
	}
	return r; /* 111 */
}
`, 111, "")
}

func TestGoto(t *testing.T) {
	expectOK(t, `
int main(void) {
	int i = 0, sum = 0;
loop:
	sum += i;
	i++;
	if (i < 5) goto loop;
	goto done;
	sum = 999;
done:
	return sum; /* 0+1+2+3+4 = 10 */
}
`, 10, "")
}

func TestFunctionPointers(t *testing.T) {
	expectOK(t, `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int apply(int (*f)(int, int), int a, int b) { return f(a, b); }
int main(void) {
	int (*ops[2])(int, int) = {add, mul};
	return apply(ops[0], 2, 3) + apply(ops[1], 2, 3); /* 5 + 6 = 11 */
}
`, 11, "")
}

func TestGlobalInit(t *testing.T) {
	expectOK(t, `
int g = 42;
int arr[3] = {1, 2, 3};
char msg[] = "hi";
int uninit; /* static: zero */
int main(void) { return g + arr[1] + msg[0] - 'h' + uninit; } /* 44 */
`, 44, "")
}

func TestStaticLocals(t *testing.T) {
	expectOK(t, `
int counter(void) { static int n = 0; return ++n; }
int main(void) { counter(); counter(); return counter(); } /* 3 */
`, 3, "")
}

func TestSizeof(t *testing.T) {
	expectOK(t, `
struct s { char c; int i; };
int main(void) {
	return (int)(sizeof(char) + sizeof(int) + sizeof(long) + sizeof(struct s) + sizeof(int*));
	/* 1 + 4 + 8 + 8 + 8 = 29 */
}
`, 29, "")
}

func TestShortCircuit(t *testing.T) {
	expectOK(t, `
int calls = 0;
int side(void) { calls++; return 1; }
int main(void) {
	int a = 0 && side();
	int b = 1 || side();
	return calls * 10 + a + b; /* 0*10 + 0 + 1 = 1 */
}
`, 1, "")
}

func TestCharArithmetic(t *testing.T) {
	expectOK(t, `
int main(void) {
	char c = 'A';
	c = c + 1;
	unsigned char u = 255;
	u = u + 1; /* wraps, unsigned */
	return c - 'B' + u; /* 0 + 0 */
}
`, 0, "")
}

func TestUnsignedWrap(t *testing.T) {
	expectOK(t, `
int main(void) {
	unsigned int x = 4294967295u;
	x = x + 1; /* defined: wraps to 0 */
	return (int)x;
}
`, 0, "")
}

func TestFloats(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
int main(void) {
	double d = 1.5;
	float f = 0.25f;
	double r = d * 4 + f * 8; /* 6 + 2 = 8 */
	printf("%g\n", r);
	return (int)r;
}
`, 8, "8\n")
}

func TestCommaOperator(t *testing.T) {
	expectOK(t, `
int main(void) {
	int x = 0;
	int y = (x = 3, x + 4);
	return y; /* 7 */
}
`, 7, "")
}

func TestConditionalExpr(t *testing.T) {
	expectOK(t, `
int main(void) {
	int a = 5;
	return a > 3 ? a > 4 ? 2 : 1 : 0;
}
`, 2, "")
}

func TestBitfields(t *testing.T) {
	expectOK(t, `
struct flags { unsigned a : 3; unsigned b : 5; int c : 8; };
int main(void) {
	struct flags f;
	f.a = 5; f.b = 17; f.c = -3;
	return f.a + f.b + (f.c + 3); /* 5 + 17 + 0 = 22 */
}
`, 22, "")
}

func TestEnumRun(t *testing.T) {
	expectOK(t, `
enum color { RED, GREEN = 10, BLUE };
int main(void) { enum color c = BLUE; return c; } /* 11 */
`, 11, "")
}

func TestTypedefRun(t *testing.T) {
	expectOK(t, `
typedef struct { int x, y; } point;
typedef int (*binop)(int, int);
int add(int a, int b) { return a + b; }
int main(void) {
	point p = {1, 2};
	binop f = add;
	return f(p.x, p.y); /* 3 */
}
`, 3, "")
}

func TestVLARun(t *testing.T) {
	expectOK(t, `
int sum(int n) {
	int a[n];
	for (int i = 0; i < n; i++) a[i] = i;
	int s = 0;
	for (int i = 0; i < n; i++) s += a[i];
	return s;
}
int main(void) { return sum(5); } /* 10 */
`, 10, "")
}

func TestArgv(t *testing.T) {
	res := undefc.RunSource(`
#include <string.h>
int main(int argc, char **argv) {
	return argc * 10 + (int)strlen(argv[1]);
}
`, "test.c", undefc.Options{Exec: interp.Options{Args: []string{"abc"}}})
	if res.Err != nil || res.UB != nil {
		t.Fatalf("argv run: err=%v ub=%v", res.Err, res.UB)
	}
	if res.ExitCode != 23 { // argc=2 → 20, strlen("abc") → 3
		t.Errorf("exit = %d, want 23", res.ExitCode)
	}
}

func TestPointerByteCopy(t *testing.T) {
	// The paper's §4.3.2 example: copying a pointer byte by byte works,
	// but only once ALL bytes are copied.
	expectOK(t, `
int main(void) {
	int x = 5, y = 6;
	int *p = &x, *q = &y;
	char *a = (char*)&p, *b = (char*)&q;
	a[0] = b[0]; a[1] = b[1]; a[2] = b[2]; a[3] = b[3];
	a[4] = b[4]; a[5] = b[5]; a[6] = b[6]; a[7] = b[7];
	return *p; /* now points to y: 6 */
}
`, 6, "")
}

// TestMemmoveOverlap: memmove copies overlapping ranges in both
// directions as if through a temporary, pointer fragments included.
func TestMemmoveOverlap(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
#include <string.h>
int main(void) {
	char up[11] = "0123456789", down[11] = "0123456789";
	memmove(up + 3, up, 6);
	memmove(down, down + 3, 6);
	int x = 1, y = 2, z = 3;
	int *ps[4] = { &x, &y, &z, 0 };
	memmove(ps + 1, ps, 3 * sizeof ps[0]);
	memmove(ps, ps + 1, 2 * sizeof ps[0]);
	printf("%s %s %d %d %d %d\n", up, down, *ps[0], *ps[1], *ps[2], *ps[3]);
	return 0;
}
`, 0, "0120123459 3456786789 1 2 2 3\n")
}

func TestStructByteCopy(t *testing.T) {
	// §4.3.3: copying a struct byte-by-byte must copy uninitialized
	// padding without error.
	expectOK(t, `
struct s { char c; int i; };  /* 3 bytes of padding after c */
int main(void) {
	struct s a, b;
	a.c = 1; a.i = 2;
	char *src = (char*)&a, *dst = (char*)&b;
	for (unsigned long k = 0; k < sizeof(struct s); k++) dst[k] = src[k];
	return b.c + b.i; /* 3 */
}
`, 3, "")
}

func TestPrintfFormats(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
int main(void) {
	printf("%d %u %x %c %s %05d %-3d|\n", -7, 42u, 255, 'Z', "str", 42, 1);
	return 0;
}
`, 0, "-7 42 ff Z str 00042 1  |\n")
}

func TestQuicksortProgram(t *testing.T) {
	expectOK(t, `
#include <stdio.h>
void qsort_ints(int *a, int lo, int hi) {
	if (lo >= hi) return;
	int pivot = a[(lo + hi) / 2], i = lo, j = hi;
	while (i <= j) {
		while (a[i] < pivot) i++;
		while (a[j] > pivot) j--;
		if (i <= j) {
			int t = a[i]; a[i] = a[j]; a[j] = t;
			i++; j--;
		}
	}
	qsort_ints(a, lo, j);
	qsort_ints(a, i, hi);
}
int main(void) {
	int a[8] = {5, 2, 8, 1, 9, 3, 7, 4};
	qsort_ints(a, 0, 7);
	for (int i = 0; i < 8; i++) printf("%d", a[i]);
	printf("\n");
	return 0;
}
`, 0, "12345789\n")
}
