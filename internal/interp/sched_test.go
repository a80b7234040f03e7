package interp

import (
	"slices"
	"testing"

	"repro/internal/driver"
)

// referenceOrder is the removal-based construction the in-place order
// must reproduce: pick from the remaining operands, remove the pick, keep
// the rest in source order.
func referenceOrder(s Scheduler, n int) []int {
	if n == 1 {
		return []int{0}
	}
	remaining := make([]int, n)
	for i := range remaining {
		remaining[i] = i
	}
	var out []int
	for len(remaining) > 0 {
		k := s.Pick(len(remaining))
		out = append(out, remaining[k])
		remaining = append(remaining[:k], remaining[k+1:]...)
	}
	return out
}

// orderInterp is an interpreter ready to schedule operands under s.
func orderInterp(tb testing.TB, s Scheduler) *Interp {
	tb.Helper()
	prog, err := driver.Compile("int main(void){ return 0; }", "order.c", driver.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return New(prog, Options{Sched: s})
}

// TestOrderMatchesReference replays every decision vector for up to 6
// operands: the in-place order must produce the reference permutation
// from the identical Pick sequence, which search replay depends on.
func TestOrderMatchesReference(t *testing.T) {
	for n := 1; n <= 6; n++ {
		// Enumerate every prefix p with p[i] < n-i (the factorial
		// number system), so each permutation of n is reached once.
		prefix := make([]int, n)
		for {
			want := &Trace{Prefix: slices.Clone(prefix)}
			wantPerm := referenceOrder(want, n)
			got := &Trace{Prefix: slices.Clone(prefix)}
			gotPerm := orderInterp(t, got).order(nil, n)
			if !slices.Equal(gotPerm, wantPerm) || !slices.Equal(got.Log, want.Log) {
				t.Fatalf("n=%d prefix %v: order %v picks %v, want %v picks %v",
					n, prefix, gotPerm, got.Log, wantPerm, want.Log)
			}
			i := n - 1
			for i >= 0 && prefix[i] == n-i-1 {
				prefix[i] = 0
				i--
			}
			if i < 0 {
				break
			}
			prefix[i]++
		}
	}
}

// TestOrderAllocs is the make-check gate for scheduling: a binary
// operator's two operands and a call's designator and arguments (up to 8
// operands, the call site's stack buffer) are ordered without allocating,
// under the default scheduler and under the search's replaying Trace
// once its log has room.
func TestOrderAllocs(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{
		{"LeftToRight", LeftToRight{}},
		{"Trace", &Trace{Prefix: []int{1, 0, 2, 1}, Log: make([]Choice, 0, 1<<16)}},
	} {
		in := orderInterp(t, tc.sched)
		allocs := testing.AllocsPerRun(100, func() {
			in.Order2()
			for n := 1; n <= 8; n++ {
				var buf [8]int
				in.order(buf[:0], n)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: scheduling allocates %.1f times per round, want 0", tc.name, allocs)
		}
	}
}
