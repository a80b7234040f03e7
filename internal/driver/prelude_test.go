package driver_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/suite"
)

// TestPreludeConcurrentGolden compiles every Figure 2/3 and torture unit
// under LP64 and ILP32 on 8 goroutines at once, from an empty prelude
// table, so goroutines build and share preludes concurrently; run it
// under -race. Every digest must be the golden's.
func TestPreludeConcurrentGolden(t *testing.T) {
	want := readGolden(t)
	var units []frontendUnit
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			units = append(units, frontendUnit{s.Name + "/" + c.Name, c.Source, c.Name + ".c"})
		}
	}
	for _, c := range suite.Torture() {
		units = append(units, frontendUnit{"torture/" + c.Name, c.Source, c.Name + ".c"})
	}
	models := []struct {
		name string
		m    *ctypes.Model
	}{{"LP64", ctypes.LP64()}, {"ILP32", ctypes.ILP32()}}
	driver.ResetPreludes()
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers*len(units)*len(models))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker starts at its own offset, so the first compiles
			// of every run meet on different goroutines.
			for k := range units {
				u := units[(k+w*len(units)/workers)%len(units)]
				for _, md := range models {
					id := md.name + " " + u.id
					if got := frontendDigest(u, md.m); got != want[id] {
						errs <- fmt.Sprintf("%s: digest %s, golden %s", id, got, want[id])
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPreludeTableBound compiles units with more distinct leading runs
// than the prelude table holds: the table stops at its bound, and every
// unit compiles to what its whole text does.
func TestPreludeTableBound(t *testing.T) {
	driver.ResetPreludes()
	headers := []string{"stdio.h", "stdlib.h", "string.h", "ctype.h", "assert.h",
		"limits.h", "stdint.h", "stddef.h", "stdbool.h", "float.h"}
	const body = "int main(void) { int n = 0; return n; }\n"
	var srcs []string
	for _, a := range headers {
		for _, b := range headers {
			srcs = append(srcs, "#include <"+a+">\n#include <"+b+">\n"+body)
		}
	}
	if len(srcs) <= driver.MaxPreludes {
		t.Fatalf("%d runs, not above the bound %d", len(srcs), driver.MaxPreludes)
	}
	for i, src := range srcs {
		// Every fourth unit also defines a macro of its own, a key of
		// its own.
		opts := driver.Options{}
		if i%4 == 0 {
			opts.Defines = []string{fmt.Sprintf("SALT_%d=1", i)}
		}
		got := digest(driver.Compile(src, "bound.c", opts))
		if want := digest(driver.CompileWhole(src, "bound.c", opts)); got != want {
			t.Errorf("%q with %v: digest %s, whole text %s", src, opts.Defines, got, want)
		}
	}
	if n := driver.Preludes(); n != driver.MaxPreludes {
		t.Errorf("table holds %d preludes, want its bound %d", n, driver.MaxPreludes)
	}
}

// TestPreludeMatchesWholeText compiles units whose headers' meaning
// depends on command-line definitions (NDEBUG, a macro named like a
// typedef) both ways, under both models. Two sets of definitions make
// preludes that are not used: one breaks the parse of stddef.h, one gives
// stdint.h a struct type.
func TestPreludeMatchesWholeText(t *testing.T) {
	var units []frontendUnit
	for _, h := range hardUnits {
		units = append(units, frontendUnit{"hard/" + h.name, h.src, h.name + ".c"})
	}
	for _, c := range suite.Own().Cases {
		units = append(units, frontendUnit{"own/" + c.Name, c.Source, c.Name + ".c"})
	}
	// A unit named like the last header its run includes continues that
	// header's line numbering without a line marker.
	for _, h := range hardUnits[:8] {
		units = append(units, frontendUnit{"named-stdlib/" + h.name, h.src, "stdlib.h"})
		units = append(units, frontendUnit{"named-stddef/" + h.name, h.src, "stddef.h"})
	}
	// Its code starts a few lines after stdlib.h's last declaration.
	units = append(units, frontendUnit{"named-stdlib/near", "#include <stdlib.h>" +
		strings.Repeat("\n", 22) + "int main(void) { return abs(-1) - 1; }\n", "stdlib.h"})
	for _, m := range []*ctypes.Model{ctypes.LP64(), ctypes.ILP32()} {
		for _, defines := range [][]string{nil, {"NDEBUG"}, {"size_t=int"}, {"EOF=0", "bool"},
			{"size_t=+"}, {"__INT8_TYPE__=struct i8"}} {
			// A table of their own, so that every prelude is built.
			driver.ResetPreludes()
			for _, u := range units {
				opts := driver.Options{Model: m, Defines: defines}
				got := digest(driver.Compile(u.src, u.file, opts))
				if want := digest(driver.CompileWhole(u.src, u.file, opts)); got != want {
					t.Errorf("%s %s -D%s: digest %s, whole text %s", m.Name, u.id, strings.Join(defines, " -D"), got, want)
				}
			}
		}
	}
}
