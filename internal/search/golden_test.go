package search_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/search"
	"repro/internal/suite"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/por_decisions.golden")

// TestPORDecisionsGolden pins every partial-order-reduction decision the
// sequential explorer makes: for each torture program and each matrix
// program, at two run caps, the number of runs, the number of pruned
// branches, whether the tree was exhausted, and the sorted outcome keys.
// With one worker the frontier is processed in a fixed order, so any
// change to how POR judges or registers choice points shows up as a
// byte difference here. Regenerate with `go test -run
// TestPORDecisionsGolden -update` only when a decision is meant to change.
func TestPORDecisionsGolden(t *testing.T) {
	type program struct{ name, src string }
	var progs []program
	for _, tc := range suite.Torture() {
		progs = append(progs, program{"torture/" + tc.Name, tc.Source})
	}
	for _, p := range matrixPrograms {
		progs = append(progs, program{"matrix/" + p.name, p.src})
	}

	var got bytes.Buffer
	ctx := context.Background()
	for _, p := range progs {
		prog := compile(t, p.src)
		for _, maxRuns := range []int{16, 64} {
			res := search.Explore(ctx, prog, search.Options{MaxRuns: maxRuns, Parallelism: 1, POR: true})
			fmt.Fprintf(&got, "%s cap=%d runs=%d pruned=%d exhausted=%v\n",
				p.name, maxRuns, res.Runs, res.Stats.OrdersPruned, res.Exhausted)
			for _, k := range keySet(res) {
				fmt.Fprintf(&got, "\t%q\n", k)
			}
		}
	}

	path := filepath.Join("testdata", "por_decisions.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w []byte
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if !bytes.Equal(g, w) {
				t.Fatalf("POR decisions differ from %s at line %d\ngot:  %s\nwant: %s", path, i+1, g, w)
			}
		}
	}
}
