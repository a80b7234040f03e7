package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// nsField matches the wall-clock fields of a JSON report; they are the
// only part of it that changes from run to run.
var nsField = regexp.MustCompile(`"(run|compile)_ns": \d+`)

// batchFiles is one accepted program, one with an unsequenced side effect
// (UB 00016), one that does not parse and one that does not exist.
var batchFiles = []string{"testdata/ok.c", "testdata/unseq.c", "testdata/bad.c", "testdata/missing.c"}

// TestBatchGolden pins kcc -batch, plain and -json, at one and two workers:
// one verdict per file in argument order, the summary and metrics lines,
// and exit 1 because not every file was accepted.
func TestBatchGolden(t *testing.T) {
	for _, form := range []struct{ name, golden string }{
		{"plain", "batch.txt"},
		{"json", "batch.json"},
	} {
		for _, j := range []string{"1", "2"} {
			t.Run(form.name+"/j"+j, func(t *testing.T) {
				args := []string{"-batch", "-j", j}
				if form.name == "json" {
					args = append(args, "-json")
				}
				var stdout, stderr bytes.Buffer
				code := run(append(args, batchFiles...), &stdout, &stderr)
				if code != 1 {
					t.Errorf("exit %d, want 1 (stderr %q)", code, stderr.String())
				}
				golden(t, form.golden, nsField.ReplaceAll(stdout.Bytes(), []byte(`"${1}_ns": 0`)))
			})
		}
	}
}

// golden compares got with testdata/name, rewriting the file under -update.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestEveryExitFinishes: -trace-out writes its file and -coverage prints
// the ledger on the exits that end a run early, translation-time UB and
// -search among them.
func TestEveryExitFinishes(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		code int
	}{
		{"static-ub", []string{"testdata/zero_array.c"}, 1},
		{"search", []string{"-search", "testdata/unseq.c"}, 1},
		{"print-config", []string{"-print-config", "testdata/ok.c"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trace := filepath.Join(t.TempDir(), "trace.json")
			var stdout, stderr bytes.Buffer
			args := append([]string{"-trace-out", trace, "-coverage"}, tc.args...)
			if code := run(args, &stdout, &stderr); code != tc.code {
				t.Errorf("exit %d, want %d (stderr %q)", code, tc.code, stderr.String())
			}
			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatalf("no trace file: %v", err)
			}
			if !bytes.Contains(data, []byte(`"name": "compile"`)) {
				t.Errorf("trace has no compile span:\n%s", data)
			}
			if !bytes.Contains(stderr.Bytes(), []byte("UB check-site coverage ledger")) {
				t.Errorf("no coverage ledger on stderr:\n%s", stderr.String())
			}
		})
	}
}

// TestTimeoutCoversCompile: -timeout bounds compile and run together, so
// a deadline that passes during the compile ends a program that would
// finish before the interpreter's first deadline poll.
func TestTimeoutCoversCompile(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-timeout", "1ns", "testdata/ok.c"}, "kcc: context deadline exceeded"},
		{[]string{"-json", "-timeout", "1ns", "testdata/ok.c"}, `"verdict": "timeout"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 1 {
			t.Errorf("%v: exit %d, want 1", tc.args, code)
		}
		if out := stdout.String() + stderr.String(); !strings.Contains(out, tc.want) {
			t.Errorf("%v: output %q lacks %q", tc.args, out, tc.want)
		}
	}
}
