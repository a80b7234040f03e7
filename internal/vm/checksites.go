package vm

// Check-site registry entries for the bytecode engine. The VM reports UB
// exclusively through the interpreter's two emission funnels (engineapi's
// UBErrorf and CheckPass), so its evaluations land in the same
// internal/obs coverage counters as the tree walker's — these rows only
// record that the VM's compile- and dispatch-time checks are additional
// sites for the behaviors they evaluate.

import (
	"repro/internal/obs"
	"repro/internal/ub"
)

func init() {
	for _, s := range []struct {
		b    *ub.Behavior
		gate string
		site string
	}{
		// vm/compile.go — constraints checked while lowering to bytecode.
		{ub.VLANotPositive, "VLASize", "vm/compile.go"},
		{ub.OutsideLifetime, "StackLife", "vm/compile.go"},
		{ub.InvalidDeref, "HeapBounds", "vm/compile.go"},
		{ub.InvalidDeref, "StackBounds", "vm/compile.go"},
		{ub.Catalog[0], "Always", "vm/compile.go"},
		// vm/stmt.go — dispatch-time statement checks.
		{ub.Catalog[0], "Always", "vm/stmt.go"},
	} {
		obs.RegisterCheckSite(s.b.Code, s.gate, s.site)
	}
}
