package cast_test

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	undefc "repro"
	"repro/internal/ctypes"
)

// run is one program's outcome: its stdout and exit code, or, when fail
// is set, a text its compile or run error contains.
type run struct {
	out  string
	exit int
	fail string
}

// constExprCorpus is testdata/constexpr: integer constant expressions
// whose value depends on C's types — in enumerators, case labels, array
// sizes and #if. lp64 is what gcc -std=c11 -O0 gives on x86-64, where
// it accepts the program, and kcc's rejection otherwise; ILP32 gives the
// same, and int8 pins by hand what changes where int has 64 bits.
var constExprCorpus = []struct {
	file string
	lp64 run
	int8 *run
}{
	{"unsigned_div.c", run{out: "1 1\n2147483647\n"}, &run{out: "1 1\n9223372036854775807\n"}},
	{"switch_unsigned_case.c", run{out: "case\n"}, &run{out: "default\n", exit: 1}},
	{"mixed_sign_compare.c", run{out: "0 1\n"}, nil},
	{"unsigned_array_size.c", run{out: "2\n"}, &run{fail: "memory limit exceeded"}},
	{"sizeof_array_size.c", run{out: "4 12\n"}, &run{out: "4 24\n"}},
	{"pp_mixed_sign.c", run{out: "false\n"}, nil},
	{"pp_char.c", run{out: "A\n"}, nil},
	{"unevaluated.c", run{out: "0 2 1\n"}, nil},
	{"static_assert_unsigned.c", run{out: "ok\n"}, nil},
	{"bitfield_width.c", run{out: "3\n"}, &run{fail: "invalid bit-field width 8589934596"}},
	// gcc 12 accepts this case label with a warning and takes it: it
	// folds the undefined shift to 0.
	{"case_shift_count.c", run{fail: "shift count 33 out of range in constant expression"}, &run{}},
	// gcc: "variably modified 'a' at file scope".
	{"array_shift_count.c", run{fail: "variable length array at file scope"}, &run{fail: "memory limit exceeded"}},
}

// TestConstExprCorpus runs every corpus program under LP64, ILP32 and
// INT8. When gcc is on PATH it also builds each program kcc accepts
// under LP64 with gcc -std=c11 -O0 and requires the same output and
// exit code.
func TestConstExprCorpus(t *testing.T) {
	for _, tc := range constExprCorpus {
		src, err := os.ReadFile(filepath.Join("testdata", "constexpr", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*ctypes.Model{ctypes.LP64(), ctypes.ILP32(), ctypes.Int8()} {
			want := tc.lp64
			if m.Name == "INT8" && tc.int8 != nil {
				want = *tc.int8
			}
			res := undefc.RunSource(string(src), tc.file, undefc.Options{Model: m})
			got := run{out: res.Output, exit: res.ExitCode}
			switch {
			case res.Err != nil:
				got = run{fail: res.Err.Error()}
			case res.UB != nil:
				got = run{fail: res.UB.Error()}
			}
			if want.fail != "" && !strings.Contains(got.fail, want.fail) || want.fail == "" && got != want {
				t.Errorf("%s under %s: got %+v, want %+v", tc.file, m.Name, got, want)
			}
		}
	}
	t.Run("gcc", func(t *testing.T) {
		gcc, err := exec.LookPath("gcc")
		if err != nil {
			t.Skip("gcc is not on PATH: the corpus is not compared with gcc")
		}
		bin := filepath.Join(t.TempDir(), "a.out")
		for _, tc := range constExprCorpus {
			if tc.lp64.fail != "" {
				continue
			}
			build := exec.Command(gcc, "-std=c11", "-O0", "-w", "-o", bin, filepath.Join("testdata", "constexpr", tc.file))
			if out, err := build.CombinedOutput(); err != nil {
				t.Errorf("gcc rejects %s: %v\n%s", tc.file, err, out)
				continue
			}
			out, err := exec.Command(bin).Output()
			got := run{out: string(out)}
			var exit *exec.ExitError
			if errors.As(err, &exit) {
				got.exit = exit.ExitCode()
			} else if err != nil {
				t.Fatal(err)
			}
			if got != tc.lp64 {
				t.Errorf("%s: gcc gives %+v, kcc %+v", tc.file, got, tc.lp64)
			}
		}
	})
}
