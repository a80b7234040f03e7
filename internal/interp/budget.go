package interp

import "fmt"

// Budget bounds one execution. It is the single place the pipeline's
// resource limits live: tools, the runner, and the CLIs all pass a Budget
// through interp.Options instead of carrying their own step knobs.
//
// The zero value means "defaults": a zero MaxSteps takes the DefaultBudget
// value.
type Budget struct {
	// MaxSteps bounds execution steps. Exceeding it yields a BudgetError,
	// which is NOT a UB verdict (§2.6: undefinedness guarded by
	// nontermination is undecidable; a budget only says "we gave up").
	MaxSteps int64
}

// maxCallDepth bounds function-call nesting in every execution.
const maxCallDepth = 5000

// DefaultBudget is the pipeline-wide default execution bound.
func DefaultBudget() Budget {
	return Budget{MaxSteps: 50_000_000}
}

// WithDefaults fills zero fields from DefaultBudget.
func (b Budget) WithDefaults() Budget {
	if b.MaxSteps == 0 {
		b.MaxSteps = DefaultBudget().MaxSteps
	}
	return b
}

func (b Budget) String() string {
	return fmt.Sprintf("max %d steps, depth %d", b.MaxSteps, maxCallDepth)
}
