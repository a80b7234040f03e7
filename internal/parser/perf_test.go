package parser_test

import (
	"runtime"
	"testing"

	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/parser"
	"repro/internal/suite"
)

// TestParserAllocsPerUnit pins the heap objects lexing and parsing
// allocate per Figure 2/3 unit, on the preprocessed text driver.Compile
// hands the parser. Measured 307 when the lexer built the unit's whole
// token slice first, each declarator was a chain of closures and each
// scope made two maps; 117.7 since. The pin sits about 25% above
// that.
func TestParserAllocsPerUnit(t *testing.T) {
	const pin = 147
	model := ctypes.LP64()
	r := cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}}
	var units []string
	for _, s := range []*suite.Suite{suite.Juliet(), suite.Own()} {
		for _, c := range s.Cases {
			out, err := cpp.New(r).Run(c.Source, c.Name+".c")
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			// A few units are meant to be rejected; measure the rest.
			if _, err := parser.Parse(out, c.Name+".c", model); err == nil {
				units = append(units, out)
			}
		}
	}
	run := func() {
		for _, src := range units {
			if _, err := parser.Parse(src, "unit.c", model); err != nil {
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
