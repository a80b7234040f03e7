package undefc_test

import (
	"strings"
	"testing"
	"time"

	undefc "repro"
	"repro/internal/ctypes"
	"repro/internal/interp"
)

func TestFacadeRunSource(t *testing.T) {
	res := undefc.RunSource(`
#include <stdio.h>
int main(void) { printf("hi\n"); return 3; }
`, "f.c", undefc.Options{})
	if res.UB != nil || res.Err != nil {
		t.Fatalf("ub=%v err=%v", res.UB, res.Err)
	}
	if res.ExitCode != 3 || res.Output != "hi\n" {
		t.Errorf("exit=%d output=%q", res.ExitCode, res.Output)
	}
}

func TestFacadeCompileThenRun(t *testing.T) {
	prog, err := undefc.Compile("int main(void){ return 7; }", "c.c", undefc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A compiled program can run repeatedly (fresh memory each time).
	for i := 0; i < 3; i++ {
		res := undefc.Run(prog, undefc.Options{})
		if res.ExitCode != 7 || res.UB != nil {
			t.Fatalf("run %d: exit=%d ub=%v", i, res.ExitCode, res.UB)
		}
	}
}

func TestFacadeReportsStaticUBFirst(t *testing.T) {
	res := undefc.RunSource("int a[0]; int main(void){ return 0; }", "s.c", undefc.Options{})
	if res.UB == nil || !res.UB.Behavior.Static {
		t.Errorf("expected a static UB verdict, got %v", res.UB)
	}
}

func TestFacadeCompileError(t *testing.T) {
	res := undefc.RunSource("int main(void { return 0; }", "bad.c", undefc.Options{})
	if res.Err == nil {
		t.Error("expected a compile error")
	}
	if res.UB != nil {
		t.Error("compile errors are not UB verdicts")
	}
}

func TestFacadeModelOption(t *testing.T) {
	src := "int main(void){ return (int)sizeof(long); }"
	if res := undefc.RunSource(src, "m.c", undefc.Options{}); res.ExitCode != 8 {
		t.Errorf("LP64 long = %d", res.ExitCode)
	}
	res := undefc.RunSource(src, "m.c", undefc.Options{Model: ctypes.ILP32()})
	if res.ExitCode != 4 {
		t.Errorf("ILP32 long = %d", res.ExitCode)
	}
}

func TestFacadeDefines(t *testing.T) {
	res := undefc.RunSource(`
#ifdef FAST
int main(void){ return 1; }
#else
int main(void){ return 2; }
#endif
`, "d.c", undefc.Options{Defines: []string{"FAST"}})
	if res.ExitCode != 1 {
		t.Errorf("exit = %d, want 1", res.ExitCode)
	}
}

// TestFacadeFunctionLikeDefine: a define with a parameter list defines a
// function-like macro, as -D does.
func TestFacadeFunctionLikeDefine(t *testing.T) {
	res := undefc.RunSource("int main(void){ return SQ(3); }", "sq.c",
		undefc.Options{Defines: []string{"SQ(x)=((x)*(x))"}})
	if res.ExitCode != 9 || res.Err != nil {
		t.Errorf("exit = %d, err %v, want 9", res.ExitCode, res.Err)
	}
}

func TestFacadeExecOptions(t *testing.T) {
	var sb strings.Builder
	res := undefc.RunSource(`
#include <stdio.h>
int main(void){ printf("to writer\n"); return 0; }
`, "w.c", undefc.Options{Exec: interp.Options{Out: &sb}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if sb.String() != "to writer\n" {
		t.Errorf("writer got %q", sb.String())
	}
	if res.Output != "" {
		t.Errorf("captured output should be empty when Out is set, got %q", res.Output)
	}
}

func TestFacadeCatalog(t *testing.T) {
	cat := undefc.Catalog()
	if len(cat) != 221 {
		t.Errorf("catalog has %d entries, want 221", len(cat))
	}
	// The paper's flagship error code must stay stable.
	if cat[15].Code != 16 || !strings.Contains(cat[15].Desc, "nsequenced") {
		t.Errorf("entry 16 = %v", cat[15])
	}
}

func TestFacadeKCCTranscript(t *testing.T) {
	// The README's front-page example, end to end.
	res := undefc.RunSource(`int main(void){
    int x = 0;
    return (x = 1) + (x = 2);
}`, "unseq.c", undefc.Options{})
	if res.UB == nil {
		t.Fatal("missed the unsequenced side effect")
	}
	rep := res.UB.Report()
	for _, want := range []string{
		"ERROR! KCC encountered an error.",
		"Error: 00016",
		"Function: main",
		"File: unseq.c",
		"Line: 3",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestHeadersFollowModel compiles one program against the built-in
// <stdint.h> and <limits.h> under each data model: the exact-width types
// and the limits follow the model, and INT8, which has no 32-bit type,
// declares no int32_t (C11 §7.20.1.1:3).
func TestHeadersFollowModel(t *testing.T) {
	const src = `#include <stdio.h>
#include <stdint.h>
#include <limits.h>
int main(void) {
	long big = LONG_MAX;
	printf("int64_t %d intptr_t %d int16_t %d\n", (int)sizeof(int64_t), (int)sizeof(intptr_t), (int)sizeof(int16_t));
	printf("LONG_MAX %d INT64_MAX %d UINT64_MAX %d\n", big == LONG_MAX && big > 0, INT64_MAX > 0, UINT64_MAX > 0);
	printf("wide int %d wide long %d\n", INT_MAX > 2147483647, LONG_MAX > 2147483647);
#ifdef INT32_MAX
	printf("int32_t %d %d\n", (int)sizeof(int32_t), INT32_MIN < 0 && UINT32_MAX > INT32_MAX);
#else
	printf("no int32_t\n");
#endif
	return 0;
}
`
	for _, tc := range []struct {
		model *ctypes.Model
		want  string
	}{
		{ctypes.LP64(), "int64_t 8 intptr_t 8 int16_t 2\nLONG_MAX 1 INT64_MAX 1 UINT64_MAX 1\nwide int 0 wide long 1\nint32_t 4 1\n"},
		{ctypes.ILP32(), "int64_t 8 intptr_t 4 int16_t 2\nLONG_MAX 1 INT64_MAX 1 UINT64_MAX 1\nwide int 0 wide long 0\nint32_t 4 1\n"},
		{ctypes.Int8(), "int64_t 8 intptr_t 8 int16_t 2\nLONG_MAX 1 INT64_MAX 1 UINT64_MAX 1\nwide int 1 wide long 1\nno int32_t\n"},
	} {
		res := undefc.RunSource(src, "model.c", undefc.Options{Model: tc.model})
		if res.Err != nil || res.UB != nil || res.ExitCode != 0 {
			t.Errorf("%s: exit %d, err %v, ub %v", tc.model.Name, res.ExitCode, res.Err, res.UB)
			continue
		}
		if res.Output != tc.want {
			t.Errorf("%s: output\n%s\nwant\n%s", tc.model.Name, res.Output, tc.want)
		}
	}
	// A program may declare the name INT8 leaves free.
	own := "#include <stdint.h>\ntypedef long int32_t;\nint main(void){ return sizeof(int32_t) == 8 ? 0 : 1; }\n"
	if res := undefc.RunSource(own, "own.c", undefc.Options{Model: ctypes.Int8()}); res.ExitCode != 0 || res.Err != nil {
		t.Errorf("INT8 own int32_t: exit %d, err %v", res.ExitCode, res.Err)
	}
}

// TestHugeArrayRejected: an array or struct whose size in bytes does not
// fit in an int64 is a compile error, for an array with gcc's text. The
// size used to wrap, to a 0-byte object whose 2^62 elements run start
// then walked one by one.
func TestHugeArrayRejected(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{"int a[1UL << 62]; int main(void) { return 0; }", `size of array "a" is too large`},
		{"int main(void) { long a[1UL << 61]; return 0; }", `size of array "a" is too large`},
		{"struct s { char a[1UL << 62], b[1UL << 62]; } x; int main(void) { return 0; }",
			`variable "x": struct s: member "b": size is too large`},
	} {
		done := make(chan undefc.Result, 1)
		go func() { done <- undefc.RunSource(tc.src, "big.c", undefc.Options{}) }()
		select {
		case res := <-done:
			if res.Err == nil || !strings.Contains(res.Err.Error(), tc.want) {
				t.Errorf("%s: err=%v ub=%v, want %s", tc.src, res.Err, res.UB, tc.want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still running after 10s", tc.src)
		}
	}
}
