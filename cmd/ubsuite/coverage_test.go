package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runner"
	"repro/internal/tools"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// TestCoverageGolden pins the whole -coverage report at -j 1 and -j 2:
// the per-behavior counters, the gates and the sites of the dead rows.
// The ledger's counters are order-independent sums, so both runs must
// print the same bytes. The test binary links what the ubsuite binary
// links, so the registered rows are the ones `ubsuite -coverage` prints.
func TestCoverageGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite twice")
	}
	var outs []string
	for _, j := range []int{1, 2} {
		var b strings.Builder
		if code := runCoverage(&b, tools.Config{}, runner.Options{Parallelism: j}); code != 0 {
			t.Fatalf("-j %d: runCoverage exited %d", j, code)
		}
		outs = append(outs, b.String())
	}
	if outs[0] != outs[1] {
		t.Fatalf("-j 1 and -j 2 reports differ:\n--- -j 1\n%s\n--- -j 2\n%s", outs[0], outs[1])
	}
	path := filepath.Join("testdata", "coverage.golden")
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
	if !bytes.Equal([]byte(outs[0]), want) {
		t.Errorf("coverage report differs from %s:\n--- got\n%s\n--- want\n%s", path, outs[0], want)
	}
}
