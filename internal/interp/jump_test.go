package interp_test

import (
	"os"
	"path/filepath"
	"testing"

	undefc "repro"
)

// TestJumpIntoStatement runs the programs of testdata/jumps, each of which
// enters a statement in its middle: a switch dispatching to a case inside
// a loop (Duff's device among them), a goto into a loop or into a run of
// cases, and jumps out again. The expected output and exit code are what
// the native compiler gives:
//
//	gcc -std=c11 -O0 prog.c && ./a.out; echo $?
//
// A jump into a for statement skips its init clause but not the lifetime
// of the objects that clause declares (C11 §6.8.5:5, §6.2.4:6).
func TestJumpIntoStatement(t *testing.T) {
	for _, tc := range []struct {
		file string
		out  string
		exit int
	}{
		{"duff.c", "5\n", 5},
		{"case_in_for.c", "3 30\n", 0},
		{"case_in_for_decl.c", "3\n", 0},
		{"goto_into_loop.c", "3 30\n", 0},
		{"goto_into_for_decl.c", "3\n", 0},
		{"goto_into_switch.c", "110\n", 0},
		{"switch_one_stmt.c", "2\n", 0},
		{"goto_out_of_case.c", "1\n", 1},
	} {
		t.Run(tc.file, func(t *testing.T) {
			res := undefc.RunSource(readJump(t, tc.file), tc.file, undefc.Options{})
			if res.Err != nil || res.UB != nil {
				t.Fatalf("err %v, UB %v", res.Err, res.UB)
			}
			if res.Output != tc.out || res.ExitCode != tc.exit {
				t.Errorf("output %q exit %d, gcc gives %q exit %d", res.Output, res.ExitCode, tc.out, tc.exit)
			}
		})
	}

	// A case inside a while writes a[2] of int a[2]: the same report as
	// the write outside a switch (UBSan flags it too).
	const plain = "int main(void) {\n\tint a[2] = {0, 0};\n\ta[2] = 1;\n\treturn a[0];\n}\n"
	want := undefc.RunSource(plain, "plain.c", undefc.Options{}).UB
	got := undefc.RunSource(readJump(t, "case_in_while_oob.c"), "case_in_while_oob.c", undefc.Options{}).UB
	if want == nil || want.Behavior.Code != 42 {
		t.Fatalf("a[2] = 1 outside a switch: %v, want UB 00042", want)
	}
	if got == nil || got.Behavior != want.Behavior || got.Msg != want.Msg {
		t.Errorf("case inside a while: %v, want %v", got, want)
	}
}

func readJump(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "jumps", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}
