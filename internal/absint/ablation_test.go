package absint_test

import (
	"testing"

	"repro/internal/absint"
	"repro/internal/suite"
)

// Verdicts of the ablation: the abstract interpretation flags a program
// on any alarm, is inconclusive when it met an unsupported construct, and
// accepts otherwise.
const (
	accepted     = "accepted"
	flagged      = "flagged"
	inconclusive = "inconclusive"
)

func verdict(res absint.Result) string {
	switch {
	case len(res.Alarms) > 0:
		return flagged
	case res.Incomplete:
		return inconclusive
	}
	return accepted
}

// TestAIValueAnalysisOnJuliet is the ablation: the abstract-interpretation
// value analysis must match the interpreter-mode one on the value-domain
// classes (division, overflow, uninit, memory) of the Juliet suite, while
// remaining honest about its approximation (some defined controls may
// alarm; some flow variants may be beyond the domain).
func TestAIValueAnalysisOnJuliet(t *testing.T) {
	s := suite.Juliet()

	classTotals := map[string]int{}
	classFlagged := map[string]int{}
	falsePos := 0
	incomplete := 0
	for _, c := range s.Cases {
		v := verdict(analyze(t, c.Source))
		if v == inconclusive {
			incomplete++
			continue
		}
		if c.Bad {
			classTotals[c.Class]++
			if v == flagged {
				classFlagged[c.Class]++
			}
		} else if v == flagged {
			falsePos++
		}
	}
	pct := func(class string) float64 {
		if classTotals[class] == 0 {
			return 0
		}
		return 100 * float64(classFlagged[class]) / float64(classTotals[class])
	}
	// Value-domain classes should be covered essentially completely.
	for _, class := range []string{suite.ClassDivZero, suite.ClassOverflow} {
		if p := pct(class); p < 90 {
			t.Errorf("AI value analysis on %q = %.1f, want >= 90", class, p)
		}
	}
	// Field-insensitive summaries miss partially-initialized aggregates:
	// scalar and whole-object uninit cases are caught, element-level ones
	// are not (Frama-C tracks per-byte initialization; our domain is the
	// honest cheaper point in that design space).
	if p := pct(suite.ClassUninit); p < 50 {
		t.Errorf("AI value analysis on %q = %.1f, want >= 50", suite.ClassUninit, p)
	}
	if p := pct(suite.ClassInvalidPtr); p < 70 {
		t.Errorf("AI value analysis on invalid pointers = %.1f, want >= 70", p)
	}
	if p := pct(suite.ClassBadFree); p < 90 {
		t.Errorf("AI value analysis on bad free = %.1f, want >= 90", p)
	}
	// Abstraction is allowed a few false alarms, but not a flood.
	if falsePos > len(s.Cases)/10 {
		t.Errorf("AI value analysis: %d false positives on %d cases", falsePos, len(s.Cases))
	}
	t.Logf("AI on Juliet: flagged=%v totals=%v falsePos=%d inconclusive=%d",
		classFlagged, classTotals, falsePos, incomplete)
}

// TestAITerminatesOnLoops: unlike the concrete interpreter, the abstract
// one terminates on programs that loop forever (the fixpoint converges).
func TestAITerminatesOnLoops(t *testing.T) {
	res := analyze(t, `
int main(void) {
	int x = 0;
	while (1) { x = x < 100 ? x + 1 : 0; }
	return x;
}
`)
	// The interpreter-mode tool would exhaust its budget here; the AI
	// must converge to a verdict.
	if v := verdict(res); v == inconclusive {
		t.Errorf("AI did not converge: %v", res.Alarms)
	}
}

// TestAIBlindToSequencing: like the real Value Analysis, the domain cannot
// see sequence-point violations.
func TestAIBlindToSequencing(t *testing.T) {
	res := analyze(t, "int main(void){ int x = 0; return (x = 1) + (x = 2); }")
	if v := verdict(res); v != accepted {
		t.Errorf("verdict = %s (%v, incomplete=%v), want accepted", v, res.Alarms, res.Incomplete)
	}
}
