package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/suite"
	"repro/internal/tools"
)

// TestVerdictsGolden pins every cell of the Figure 2 and Figure 3
// matrices (juliet and own, each case under every tool) at -j 1 and -j 2
// in testdata/verdicts.golden: the tool, the verdict, the detail and the
// UB report (code, location, function, message). Timing and metrics are
// left out, so the file changes only when some cell's outcome does.
func TestVerdictsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the juliet and own matrices twice")
	}
	var outs []string
	for _, j := range []int{1, 2} {
		var b strings.Builder
		for _, s := range []struct {
			name string
			s    *suite.Suite
		}{{"juliet", suite.Juliet()}, {"own", suite.Own()}} {
			ts := tools.All(tools.Config{})
			m, err := runner.RunMatrix(s.s, ts, runner.Options{Parallelism: j})
			if err != nil {
				t.Fatalf("-j %d: %s: %v", j, s.name, err)
			}
			for i, c := range s.s.Cases {
				for k, tool := range ts {
					writeCell(&b, s.name, c.Name, tool.Name(), m.Reports[i][k])
				}
			}
		}
		outs = append(outs, b.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("-j 1 and -j 2 verdicts differ")
	}
	path := filepath.Join("testdata", "verdicts.golden")
	if *update {
		if err := os.WriteFile(path, []byte(outs[0]), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := []byte(outs[0]); !bytes.Equal(got, want) {
		gl, wl := strings.Split(outs[0], "\n"), strings.Split(string(want), "\n")
		shown := 0
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w && shown < 20 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
				shown++
			}
		}
		t.Fatalf("verdicts differ from %s (%d lines got, %d want)", path, len(gl), len(wl))
	}
}

// writeCell writes one matrix cell as a tab-separated line.
func writeCell(b *strings.Builder, suiteName, caseName, tool string, r tools.Report) {
	code, loc, fn, msg := "-", "-", "-", "-"
	if r.UB != nil {
		code = fmt.Sprintf("%05d", r.UB.Behavior.Code)
		loc, fn, msg = r.UB.Pos.String(), r.UB.Func, r.UB.Msg
	}
	fmt.Fprintf(b, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%q\n",
		suiteName, caseName, tool, r.Verdict, code, loc, fn, msg, r.Detail)
}
