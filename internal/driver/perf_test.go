package driver_test

import (
	"runtime"
	"testing"

	"repro/internal/driver"
	"repro/internal/suite"
)

// TestCompileAllocsPerUnit pins the heap objects one driver.Compile
// allocates per Figure 2/3 unit, warm: preprocessing, lexing, parsing
// and checking, after the first round has built the preludes of the
// units' leading includes. Measured 166.2 when every unit spliced, lexed,
// parsed and checked the text of its built-in headers again; 97.2 since
// units continue from the prelude of their includes. The pin sits about
// 25% above that. The per-layer pins
// (TestCPPAllocsPerUnit, TestParserAllocsPerUnit, TestSemaAllocsPerUnit)
// measure those layers on the full text, headers included.
func TestCompileAllocsPerUnit(t *testing.T) {
	const pin = 121
	// Start from an empty table: one that other tests filled would not
	// hold these units' preludes.
	driver.ResetPreludes()
	type unit struct{ src, file string }
	var units []unit
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			// A few units are meant to be rejected; measure the rest.
			if _, err := driver.Compile(c.Source, c.Name+".c", driver.Options{}); err == nil {
				units = append(units, unit{c.Source, c.Name + ".c"})
			}
		}
	}
	run := func() {
		for _, u := range units {
			if _, err := driver.Compile(u.src, u.file, driver.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}
	run() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	n := float64(len(units))
	objects := float64(after.Mallocs - before.Mallocs)
	t.Logf("%d units: %.1f objects/unit, %.0f B/unit", len(units), objects/n, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if objects/n > pin {
		t.Errorf("%.1f heap objects per unit, want at most %v", objects/n, pin)
	}
}
