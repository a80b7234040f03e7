package interp

import (
	"fmt"
	"testing"

	"repro/internal/driver"
)

// fibCalls is the number of calls fib(n) makes, itself included.
func fibCalls(n int) int {
	if n < 2 {
		return 1
	}
	return 1 + fibCalls(n-1) + fibCalls(n-2)
}

// TestCallAllocs is the make-check gate for the call path: heap objects
// per user call of a recursive int function, measured as the difference
// between two recursion depths so the run's fixed costs cancel. Measured
// 6.05 (14.03 with a fresh frame, locals map and operand slice per call
// and a fresh function pointer per designator use): what is left is the
// parameter object, its bytes and the boxed identities of its
// indeterminate bytes. The pin sits about 25% above.
func TestCallAllocs(t *testing.T) {
	const pin = 7.5
	allocs := func(n int) float64 {
		src := fmt.Sprintf(`static int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
int main(void) { return fib(%d) & 1; }`, n)
		prog, err := driver.Compile(src, "fib.c", driver.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if res := Run(prog, Options{}); res.Err != nil || res.UB != nil {
				t.Fatalf("fib(%d): %v %v", n, res.Err, res.UB)
			}
		})
	}
	const lo, hi = 8, 14
	perCall := (allocs(hi) - allocs(lo)) / float64(fibCalls(hi)-fibCalls(lo))
	t.Logf("%.2f heap objects per call", perCall)
	if perCall > pin {
		t.Errorf("%.2f heap objects per user call, want at most %.2f", perCall, pin)
	}
}
