package sema_test

import (
	"runtime"
	"testing"

	"repro/internal/cast"
	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/suite"
)

// TestSemaAllocsPerUnit pins the heap objects checking allocates per
// Figure 2/3 unit. Measured 38.6 when every block made its own scope map
// and every declaration formatted the text of an error it might report;
// 31.2 since. The pin sits about 22% above that, below the old count.
func TestSemaAllocsPerUnit(t *testing.T) {
	const pin = 38
	model := ctypes.LP64()
	r := cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}}
	var srcs []string
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			out, err := cpp.New(r).Run(c.Source, c.Name+".c")
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			// A few units are meant to be rejected; measure the rest.
			if tu, err := parser.Parse(out, c.Name+".c", model); err == nil {
				if _, err := sema.Check(tu, model); err == nil {
					srcs = append(srcs, out)
				}
			}
		}
	}
	// Check annotates the tree it is given, so each round gets fresh
	// trees.
	parse := func() []*cast.TranslationUnit {
		tus := make([]*cast.TranslationUnit, len(srcs))
		for i, src := range srcs {
			tus[i], _ = parser.Parse(src, "unit.c", model)
		}
		return tus
	}
	run := func(tus []*cast.TranslationUnit) {
		for _, tu := range tus {
			if _, err := sema.Check(tu, model); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(parse()) // warm up
	tus := parse()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(tus)
	runtime.ReadMemStats(&after)
	n := float64(len(tus))
	objects := float64(after.Mallocs - before.Mallocs)
	t.Logf("%d units: %.1f objects/unit, %.0f B/unit", len(tus), objects/n, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if objects/n > pin {
		t.Errorf("%.1f heap objects per unit, want at most %v", objects/n, pin)
	}
}
