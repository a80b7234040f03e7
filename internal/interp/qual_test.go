package interp

import (
	"testing"
	"time"

	"repro/internal/ctypes"
	"repro/internal/ub"
)

// TestMarkQualRangesSkipsPlainTypes: run start marks const and volatile
// bytes by walking each object's type, and a type with no qualifier
// inside needs no walk. An array of 2^40 plain chars must return at once
// rather than visit every element.
func TestMarkQualRangesSkipsPlainTypes(t *testing.T) {
	in := New(compileT(t, "int main(void) { return 0; }"), Options{})
	huge := ctypes.ArrayOf(ctypes.ArrayOf(ctypes.TChar, 1<<20), 1<<20)
	done := make(chan struct{})
	go func() {
		in.markQualRanges(1, 0, huge)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("markQualRanges walked a type with no qualifier inside")
	}
}

// TestQualNestedInArrays: const and volatile members of structs inside
// arrays, at file scope, in blocks and as statics, are still marked.
func TestQualNestedInArrays(t *testing.T) {
	const decl = "struct s { int a; const int c; volatile int v; };\n"
	for _, tc := range []struct {
		src  string
		want *ub.Behavior
	}{
		{decl + "struct s g[3][2]; int main(void) { int *p = (int *)&g[2][1].c; *p = 1; return 0; }", ub.ModifyConst},
		{decl + "struct s g[3][2]; int main(void) { int *p = (int *)&g[1][0].v; return *p; }", ub.VolatileNonvolatile},
		{decl + "int main(void) { struct s l[4] = {0}; int *p = (int *)&l[3].c; *p = 1; return 0; }", ub.ModifyConst},
		{decl + "int main(void) { static struct s l[4]; int *p = (int *)&l[2].v; return *p; }", ub.VolatileNonvolatile},
		{decl + "struct s g[3][2]; int main(void) { int *p = &g[2][1].a; *p = 1; return *p - 1; }", nil},
	} {
		res := Run(compileT(t, tc.src), Options{})
		if res.Err != nil {
			t.Fatalf("%s: %v", tc.src, res.Err)
		}
		if tc.want == nil {
			if res.UB != nil || res.ExitCode != 0 {
				t.Errorf("%s: ub=%v exit=%d, want a clean run", tc.src, res.UB, res.ExitCode)
			}
			continue
		}
		if res.UB == nil || res.UB.Behavior != tc.want {
			t.Errorf("%s: ub=%v, want %s", tc.src, res.UB, tc.want.Desc)
		}
	}
}
