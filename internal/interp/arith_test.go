package interp_test

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	undefc "repro"
	"repro/internal/ub"
)

// arithCorpus is testdata/arith: ++, -- and compound assignments at the
// limits of their types. out is what gcc -std=c11 -O0 prints; a row with
// a behavior is undefined, and gcc's UBSan reports a runtime error there.
var arithCorpus = []struct {
	file string
	out  string
	b    *ub.Behavior
}{
	{"inc_schar_max.c", "-128\n", nil},
	{"dec_short_min.c", "32767\n", nil},
	{"pre_inc_char.c", "-128 -32768\n127 32767\n", nil},
	{"compound_char.c", "-128 -128 32767 32767\n", nil},
	{"unsigned_wrap.c", "255 0 4294967295 1\n", nil},
	{"inc_int_max.c", "", ub.SignedOverflow},
	{"dec_llong_min.c", "", ub.SignedOverflow},
	{"shl_assign_count.c", "", ub.ShiftTooFar},
}

// TestArithCorpus runs the corpus under the kcc profile and, when gcc is
// on PATH, builds each program with gcc -std=c11 -O0
// -fsanitize=undefined and requires the same output, or a runtime error
// where kcc reports undefined behavior.
func TestArithCorpus(t *testing.T) {
	for _, tc := range arithCorpus {
		res := undefc.RunSource(readArith(t, tc.file), tc.file, undefc.Options{})
		switch {
		case res.Err != nil:
			t.Errorf("%s: %v", tc.file, res.Err)
		case tc.b == nil && res.UB != nil:
			t.Errorf("%s: %v, gcc prints %q", tc.file, res.UB, tc.out)
		case tc.b != nil && (res.UB == nil || res.UB.Behavior != tc.b):
			t.Errorf("%s: got UB %v, want %s", tc.file, res.UB, tc.b.Desc)
		case tc.b == nil && (res.Output != tc.out || res.ExitCode != 0):
			t.Errorf("%s: output %q exit %d, gcc prints %q exit 0", tc.file, res.Output, res.ExitCode, tc.out)
		}
	}
	t.Run("gcc", func(t *testing.T) {
		gcc, err := exec.LookPath("gcc")
		if err != nil {
			t.Skip("gcc is not on PATH: the corpus is not compared with gcc")
		}
		bin := filepath.Join(t.TempDir(), "a.out")
		for _, tc := range arithCorpus {
			build := exec.Command(gcc, "-std=c11", "-O0", "-w", "-fsanitize=undefined",
				"-fno-sanitize-recover=undefined", "-o", bin, filepath.Join("testdata", "arith", tc.file))
			if out, err := build.CombinedOutput(); err != nil {
				t.Errorf("gcc rejects %s: %v\n%s", tc.file, err, out)
				continue
			}
			var stderr bytes.Buffer
			run := exec.Command(bin)
			run.Stderr = &stderr
			out, err := run.Output()
			var exit *exec.ExitError
			if err != nil && !errors.As(err, &exit) {
				t.Fatal(err)
			}
			flagged := strings.Contains(stderr.String(), "runtime error")
			if flagged != (tc.b != nil) || tc.b == nil && (err != nil || string(out) != tc.out) {
				t.Errorf("%s: gcc prints %q (%v) with %q; the corpus says %q, UB %v",
					tc.file, out, err, stderr.String(), tc.out, tc.b != nil)
			}
		}
	})
}

func readArith(t *testing.T, file string) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", "arith", file))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}
