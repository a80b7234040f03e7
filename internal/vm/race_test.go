package vm_test

// The concurrency half of the immutability contract: one *Code is shared
// by every interpreter executing the same program, under any of the four
// tool profiles, on any goroutine. Run under -race (the make check gate
// does), this test is the proof that compiled closures never write
// shared state.

import (
	"fmt"
	"sync"
	"testing"

	undefc "repro"
	"repro/internal/interp"
	"repro/internal/suite"
	"repro/internal/vm"
)

// verdict is what a tool reads off one execution: the fired UB, the
// non-UB error, or the exit code.
func verdict(res interp.Result) string {
	switch {
	case res.UB != nil:
		return fmt.Sprintf("UB %05d %s %s (exit %d)", res.UB.Behavior.Code, res.UB.Pos, res.UB.Msg, res.ExitCode)
	case res.Err != nil:
		return fmt.Sprintf("error %s (exit %d)", res.Err, res.ExitCode)
	}
	return fmt.Sprintf("exit %d", res.ExitCode)
}

// TestMatrixParallelVM runs every Juliet program under the four tool
// profiles on 8 goroutines, calling interp.Run directly. Each program is
// compiled once, so all four vm runs of a case share its *sema.Program
// and therefore its cached *Code; every run is checked against a
// tree-walker run of the same cell.
func TestMatrixParallelVM(t *testing.T) {
	s := suite.Juliet()
	progs := make([]*undefc.Program, len(s.Cases))
	for i, c := range s.Cases {
		prog, err := undefc.Compile(c.Source, c.Name+".c", undefc.Options{})
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		progs[i] = prog
	}
	profs := profiles()
	names := []string{"kcc", "memcheck", "checkpointer", "valueanal"}
	vm.ResetStats()

	type cell struct{ ci, pi int }
	cells := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				prof := profs[names[c.pi]]
				tree := verdict(interp.Run(progs[c.ci], interp.Options{Profile: prof}))
				got := verdict(interp.Run(progs[c.ci], interp.Options{Engine: "vm", Profile: prof}))
				if got != tree {
					t.Errorf("%s × %s: tree=%s vm=%s", s.Cases[c.ci].Name, names[c.pi], tree, got)
				}
			}
		}()
	}
	// Case-major order keeps a case's four cells in flight together, so
	// they contend for the same compiled code.
	for ci := range progs {
		for pi := range names {
			cells <- cell{ci, pi}
		}
	}
	close(cells)
	wg.Wait()

	// Each program compiles once and its other three profile runs hit. The
	// suite is larger than the LRU cap, so a handful of entries can be
	// evicted between runs under parallelism — but a miss count near the
	// execution count (4 lookups per case) would mean the single-flight or
	// the interning key is broken.
	st := vm.Stats()
	if limit := uint64(len(s.Cases) + len(s.Cases)/4); st.Misses > limit {
		t.Errorf("bytecode compiles = %d for %d cases; cache is not deduplicating", st.Misses, len(s.Cases))
	}
	if st.Hits < st.Misses {
		t.Errorf("bytecode cache hits = %d < misses = %d across a 4-profile matrix", st.Hits, st.Misses)
	}
}
