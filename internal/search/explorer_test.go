package search

import (
	"context"
	"testing"

	"repro/internal/driver"
)

func newTestExplorer(t *testing.T, src string, maxRuns int) *explorer {
	t.Helper()
	prog, err := driver.Compile(src, "test.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return newExplorer(context.Background(), prog, Options{MaxRuns: maxRuns, POR: true}, maxRuns)
}

// TestHelpersStartOnlyWithWork: the calling goroutine is the first worker,
// and the other workers start only once a finished run has queued work. A
// one-run exploration starts none; a capped exploration of a recursion
// with many orders starts all of them.
func TestHelpersStartOnlyWithWork(t *testing.T) {
	one := newTestExplorer(t, `int main(void) { int a = 2, b = 3; return a + b; }`, 16)
	one.run(4)
	if one.runs != 1 || one.helpers != 0 {
		t.Errorf("one-run exploration: %d runs started %d helpers, want 1 run and 0 helpers", one.runs, one.helpers)
	}
	fib := newTestExplorer(t, `
int calls;
static int fib(int n) { calls++; return n < 2 ? n : fib(n-1) + fib(n-2); }
int main(void) { return fib(8) + calls; }`, 16)
	fib.run(4)
	if fib.runs != 16 || fib.helpers != 3 {
		t.Errorf("fib exploration: %d runs started %d helpers, want 16 runs and 3 helpers", fib.runs, fib.helpers)
	}
}
