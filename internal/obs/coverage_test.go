package obs

import (
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/ub"
)

func TestCoverageRegistryAndSnapshot(t *testing.T) {
	RegisterCheckSite(16, "Seq", "test.siteA")
	RegisterCheckSite(16, "Seq", "test.siteA") // duplicate collapses
	RegisterCheckSite(16, "Seq", "test.siteB")
	RegisterCheckSite(39, "DivZero", "test.siteC")

	ResetCoverage()
	CoverageHit(16, false)
	CoverageHit(16, false)
	CoverageHit(16, true)
	CoverageHit(39, false)

	led := CoverageSnapshot()
	if led.Schema != CoverageSchema {
		t.Fatalf("schema %q", led.Schema)
	}
	var r16, r39 *CoverageRow
	for i := range led.Behaviors {
		switch led.Behaviors[i].Code {
		case 16:
			r16 = &led.Behaviors[i]
		case 39:
			r39 = &led.Behaviors[i]
		}
	}
	if r16 == nil || r39 == nil {
		t.Fatal("registered behaviors missing from snapshot")
	}
	if r16.Evaluated != 3 || r16.Fired != 1 {
		t.Fatalf("behavior 16: evaluated/fired %d/%d, want 3/1", r16.Evaluated, r16.Fired)
	}
	if len(r16.Sites) != 2 || r16.Sites[0] != "test.siteA" || r16.Sites[1] != "test.siteB" {
		t.Fatalf("behavior 16 sites %v", r16.Sites)
	}
	if r16.Key != "00016" || r16.Section == "" {
		t.Fatalf("behavior 16 identity %q §%q", r16.Key, r16.Section)
	}
	if r39.Evaluated != 1 || r39.Fired != 0 {
		t.Fatalf("behavior 39: evaluated/fired %d/%d, want 1/0", r39.Evaluated, r39.Fired)
	}
	if b, _ := ub.Lookup(39); r39.Desc != b.Desc {
		t.Fatalf("behavior 39 desc %q", r39.Desc)
	}
	if led.Registered < 2 || led.Fired < 1 || led.Dead != led.Registered-led.Fired {
		t.Fatalf("summary counts %d/%d/%d", led.Registered, led.Fired, led.Dead)
	}
}

func TestCoverageLedgerAddCommutes(t *testing.T) {
	mk := func(code int, eval, fired int64) *CoverageLedger {
		l := &CoverageLedger{Schema: CoverageSchema, Behaviors: []CoverageRow{{
			Code: code, Key: CheckKey(code), Gates: []string{"Always"}, Sites: []string{"s"},
			Evaluated: eval, Fired: fired,
		}}}
		l.recount()
		return l
	}
	a := mk(16, 10, 2)
	a.Add(mk(16, 5, 0))
	a.Add(mk(39, 7, 7))
	if a.Behaviors[0].Evaluated != 15 || a.Behaviors[0].Fired != 2 {
		t.Fatalf("merged row: %+v", a.Behaviors[0])
	}
	if a.Registered != 2 || a.Fired != 2 || a.Dead != 0 {
		t.Fatalf("merged summary %d/%d/%d", a.Registered, a.Fired, a.Dead)
	}

	b := mk(39, 7, 7)
	b.Add(mk(16, 5, 0))
	b.Add(mk(16, 10, 2))
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("ledger Add not order-independent:\n%s\n%s", aj, bj)
	}
	a.Add(nil) // no-op
}

func TestCoverageHitConcurrent(t *testing.T) {
	ResetCoverage()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				CoverageHit(31, i%10 == 0)
			}
		}()
	}
	wg.Wait()
	if got := coverageEvaluated[31].Load(); got != 80000 {
		t.Fatalf("evaluated %d, want 80000", got)
	}
	if got := coverageFired[31].Load(); got != 8000 {
		t.Fatalf("fired %d, want 8000", got)
	}
	ResetCoverage()
}

// TestCoverageTallyFlush: per-worker tallies, flushed concurrently, add
// up to the same ledger as direct hits, and a recycled tally starts empty.
func TestCoverageTallyFlush(t *testing.T) {
	ResetCoverage()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for run := 0; run < 10; run++ {
				tl := NewCoverageTally()
				for i := 0; i < 1000; i++ {
					tl.Hit(31, i%10 == 0)
					tl.Hit(16, false)
				}
				tl.Hit(-5, true) // out of range: absorbed by slot 0
				tl.Flush()
			}
		}()
	}
	wg.Wait()
	for _, c := range []struct {
		code            int
		evaluated, fire int64
	}{{31, 80000, 8000}, {16, 80000, 0}, {0, 80, 80}} {
		if got := coverageEvaluated[c.code].Load(); got != c.evaluated {
			t.Errorf("code %d evaluated %d, want %d", c.code, got, c.evaluated)
		}
		if got := coverageFired[c.code].Load(); got != c.fire {
			t.Errorf("code %d fired %d, want %d", c.code, got, c.fire)
		}
	}
	ResetCoverage()
}

// TestCoverageLedgerAllocs is the make-check gate: the ledger hot path —
// one tally Hit (or direct CoverageHit) per check evaluation — must not
// allocate.
func TestCoverageLedgerAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(1000, func() {
		CoverageHit(16, false)
		CoverageHit(16, true)
	}); n != 0 {
		t.Fatalf("CoverageHit allocates %.1f per run, want 0", n)
	}
	tl := NewCoverageTally()
	if n := testing.AllocsPerRun(1000, func() {
		tl.Hit(16, false)
		tl.Hit(16, true)
		tl.Hit(31, false)
	}); n != 0 {
		t.Fatalf("CoverageTally.Hit allocates %.1f per run, want 0", n)
	}
	tl.Flush()
	ResetCoverage()
}
