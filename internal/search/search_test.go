package search_test

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	undefc "repro"
	"repro/internal/fault"
	"repro/internal/search"
	"repro/internal/ub"
)

func compile(t testing.TB, src string) *undefc.Program {
	t.Helper()
	prog, err := undefc.Compile(src, "test.c", undefc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestSetDenomSearch is the paper's §2.5.2 experiment: GCC's order runs
// fine, CompCert's order divides by zero; the search must find both.
func TestSetDenomSearch(t *testing.T) {
	prog := compile(t, `
int d = 5;
int setDenom(int x){
	return d = x;
}
int main(void) {
	return (10/d) + setDenom(0);
}
`)
	res := search.Explore(context.Background(), prog, search.Options{})
	if !res.Exhausted {
		t.Error("search should exhaust this small program")
	}
	if res.UB() == nil {
		t.Fatal("search must find the division by zero on some order")
	}
	if res.UB().Behavior != ub.DivByZero {
		t.Errorf("found %v", res.UB())
	}
	// Both a defined outcome and the UB outcome exist.
	var okSeen bool
	for _, o := range res.Outcomes {
		if o.UB == nil && o.Err == nil {
			okSeen = true
			if o.ExitCode != 2 {
				t.Errorf("defined outcome exit = %d, want 2", o.ExitCode)
			}
		}
	}
	if !okSeen {
		t.Error("the defined (left-to-right) outcome must also be found")
	}
}

func TestDeterministicProgram(t *testing.T) {
	prog := compile(t, `
int main(void) {
	int a = 2, b = 3;
	return a + b;
}
`)
	res := search.Explore(context.Background(), prog, search.Options{})
	if !res.Deterministic() {
		t.Errorf("got %d outcomes", len(res.Outcomes))
	}
	if res.UB() != nil {
		t.Errorf("unexpected UB: %v", res.UB())
	}
	if !res.Exhausted {
		t.Error("search should exhaust")
	}
}

// TestOrderDependentResult: unspecified order can change the result without
// undefinedness being detected on either order (x read and written in
// different full expressions is fine; here two calls with side effects give
// different sums — still unspecified, not undefined, because function calls
// are indeterminately sequenced, not unsequenced).
func TestOrderDependentResult(t *testing.T) {
	prog := compile(t, `
int x = 0;
int bump(void) { return ++x; }
int twice(void) { return x * 2; }
int main(void) {
	return bump() + twice();
}
`)
	res := search.Explore(context.Background(), prog, search.Options{})
	if len(res.Outcomes) < 2 {
		t.Errorf("expected order-dependent outcomes, got %d", len(res.Outcomes))
	}
	for _, o := range res.Outcomes {
		if o.UB != nil {
			t.Errorf("no UB expected, got %v", o.UB)
		}
	}
}

func TestUnseqFoundOnSomeOrder(t *testing.T) {
	// x + x++ : caught only when the read happens after the ++ writes, or
	// vice versa; the search must find it regardless of default order.
	prog := compile(t, `
int main(void) {
	int x = 1;
	return x + x++;
}
`)
	res := search.Explore(context.Background(), prog, search.Options{})
	if res.UB() == nil {
		t.Fatal("search must find the unsequenced read/write")
	}
}

func TestMaxRunsBudget(t *testing.T) {
	// Many independent binary choices: the tree is big; the budget stops
	// the search cleanly.
	prog := compile(t, `
int f(int x) { return x; }
int main(void) {
	int s = 0;
	for (int i = 0; i < 20; i++) s += f(1) + f(2);
	return s - 60;
}
`)
	res := search.Explore(context.Background(), prog, search.Options{MaxRuns: 7})
	if res.Runs > 7 {
		t.Errorf("runs = %d, budget was 7", res.Runs)
	}
	if res.Exhausted {
		t.Error("must not claim exhaustion under budget")
	}
}

func TestStopAtFirstUB(t *testing.T) {
	prog := compile(t, `
int main(void) {
	int x = 0;
	return (x = 1) + (x = 2);
}
`)
	res := search.Explore(context.Background(), prog, search.Options{StopAtFirstUB: true})
	if res.UB() == nil {
		t.Fatal("expected UB")
	}
	if res.Runs != 1 {
		t.Errorf("should stop after first run, ran %d", res.Runs)
	}
}

// goroutineID reads the current goroutine's id from its stack header.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestWorkerPanicContained: a panic on any search worker stops the search
// and is raised again on Explore's caller, so the caller's fault.Guard
// contains it, with the panicking worker's value and stack, whichever
// goroutine ran the run. Every order of the program prints a different
// output, so every run delivers an outcome.
func TestWorkerPanicContained(t *testing.T) {
	prog := compile(t, `
#include <stdio.h>
int g;
int f(int x) { g = g * 10 + x; return 0; }
int main(void) { f(1) + f(2) + f(3) + f(4); printf("%d\n", g); return 0; }
`)
	for _, par := range []int{1, 2, 4} {
		for _, onHelper := range []bool{false, true} {
			if onHelper && par == 1 {
				continue // a single worker is the caller
			}
			caller := goroutineID()
			var panicked atomic.Bool
			opts := search.Options{MaxRuns: 16, Parallelism: par, OnOutcome: func(search.Outcome, search.Stats) {
				if onHelper && goroutineID() == caller {
					// Hand the helpers the chance to deliver.
					time.Sleep(5 * time.Millisecond)
					return
				}
				panicked.Store(true)
				panic("boom")
			}}
			err := fault.Guard(fault.StageAnalyze, "test.c", func() error {
				search.Explore(context.Background(), prog, opts)
				return nil
			})
			if !panicked.Load() {
				t.Errorf("par %d, helper %v: no worker panicked", par, onHelper)
				continue
			}
			ie, ok := fault.AsInternal(err)
			if !ok {
				t.Fatalf("par %d, helper %v: Guard returned %v, want a contained panic", par, onHelper, err)
			}
			if ie.Value != "boom" || !strings.Contains(ie.Stack, "(*explorer).deliver") {
				t.Errorf("par %d, helper %v: contained value %q, stack:\n%s\nwant value boom and the worker's stack", par, onHelper, ie.Value, ie.Stack)
			}
		}
	}
}
