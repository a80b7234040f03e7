package interp

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/driver"
	"repro/internal/mem"
	"repro/internal/sema"
)

// desigSrc prints and stores pointers to its functions, so its output and
// its memory both depend on which objects the designators are.
const desigSrc = `#include <stdio.h>
static int f0(int x) { return x; }
static int f1(int x) { return x + 1; }
static int f2(int x) { return x + 2; }
static int f3(int x) { return x + 3; }
static int f4(int x) { return x + 4; }
static int f5(int x) { return x + 5; }
static int f6(int x) { return x + 6; }
static int f7(int x) { return x + 7; }
static int (*tab[8])(int) = { f0, f1, f2, f3, f4, f5, f6, f7 };
static int counter = 3;
static const char *msg = "done";
int main(void) {
	int s = counter;
	for (int i = 0; i < 8; i++) s += tab[i](i);
	printf("%p %p %lu %s\n", (void *)f0, (void *)tab[7], (unsigned long)tab[3], msg);
	return s & 1;
}
`

// setupSrc is desigSrc with a main that does almost nothing, so a run's
// heap objects are mostly its setup.
const setupSrc = `#include <stdio.h>
static int f0(int x) { return x; }
static int f1(int x) { return x + 1; }
static int f2(int x) { return x + 2; }
static int f3(int x) { return x + 3; }
static int f4(int x) { return x + 4; }
static int f5(int x) { return x + 5; }
static int f6(int x) { return x + 6; }
static int f7(int x) { return x + 7; }
static int (*tab[8])(int) = { f0, f1, f2, f3, f4, f5, f6, f7 };
static int counter = 3;
static const char *msg = "done";
int main(void) { return tab[counter](0) + (msg[0] == 'd'); }
`

func compileT(t testing.TB, src string) *sema.Program {
	t.Helper()
	prog, err := driver.Compile(src, "t.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestFuncPtrOutputDeterministic: function designators are allocated in
// declaration order, so a program that prints function pointers prints
// the same line on every run — here 20 runs at once on one shared program,
// which also exercises the lazily built designator table under -race.
func TestFuncPtrOutputDeterministic(t *testing.T) {
	prog := compileT(t, desigSrc)
	const runs = 20
	outs := make([]string, runs)
	var wg sync.WaitGroup
	for i := range outs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := Run(prog, Options{})
			if res.Err != nil || res.UB != nil {
				t.Errorf("run %d: %v %v", i, res.Err, res.UB)
			}
			outs[i] = res.Output
		}()
	}
	wg.Wait()
	for i, out := range outs {
		if out != outs[0] {
			t.Fatalf("run %d printed %q, run 0 printed %q", i, out, outs[0])
		}
	}
}

// TestStateDigestAcrossNew: two interpreters of one program reach the
// same state digest after global initialization, which stores function
// pointers in memory.
func TestStateDigestAcrossNew(t *testing.T) {
	prog := compileT(t, desigSrc)
	var digests [2]uint64
	for i := range digests {
		in := New(prog, Options{})
		if err := in.initGlobals(); err != nil {
			t.Fatal(err)
		}
		digests[i] = in.StateDigest()
	}
	if digests[0] != digests[1] {
		t.Errorf("state digests after initialization differ: %#x vs %#x", digests[0], digests[1])
	}
}

// TestPtrTableBounded: storing pointers to objects 100,000 times adds
// nothing to the store's pointer table: their fragments hold the address.
// &x reaches p and q under two type objects, the & expression's and the
// conditional's.
func TestPtrTableBounded(t *testing.T) {
	prog := compileT(t, `int main(void) {
	int x, y, *p, *q;
	for (long i = 0; i < 100000; i++) { p = &x; q = i & 1 ? &x : &y; }
	return p == q;
}`)
	in := New(prog, Options{})
	if res := in.RunMachine(); res.Err != nil || res.UB != nil {
		t.Fatalf("%v %v", res.Err, res.UB)
	}
	if n := in.store.PtrEntries(); n != 0 {
		t.Errorf("pointer table has %d entries after storing pointers to objects 200,000 times", n)
	}
}

// TestPtrWalkLargeBuffer: a pointer walked over a 700,000-byte buffer
// stores 700,000 distinct addresses, and the run stays inside the default
// limits.
func TestPtrWalkLargeBuffer(t *testing.T) {
	prog := compileT(t, `static char buf[700000];
int main(void) {
	for (char *p = buf; p < buf + sizeof buf; p++) *p = 1;
	return buf[sizeof buf - 1] - 1;
}`)
	if res := Run(prog, Options{}); res.Err != nil || res.UB != nil || res.ExitCode != 0 {
		t.Errorf("err %v, UB %v, exit %d; want a clean exit 0", res.Err, res.UB, res.ExitCode)
	}
}

// TestPtrHalvesOfEqualPointers: the bytes of two pointers to one object
// are interchangeable, even when the pointers were computed with
// different type objects (here the & expression's and the
// conditional's), so a pointer assembled from half of each reads back.
func TestPtrHalvesOfEqualPointers(t *testing.T) {
	prog := compileT(t, `#include <string.h>
int main(void) {
	int x = 1, y = 2, c = 1;
	int *p = &x, *q = c ? &x : &y, *r;
	memcpy(&r, &p, sizeof r / 2);
	memcpy((char *)&r + sizeof r / 2, (char *)&q + sizeof r / 2, sizeof r / 2);
	return *r - 1;
}`)
	if res := Run(prog, Options{}); res.Err != nil || res.UB != nil || res.ExitCode != 0 {
		t.Errorf("err %v, UB %v, exit %d; want a clean exit 0", res.Err, res.UB, res.ExitCode)
	}
}

// TestPtrTableLimit: the pointer table counts against the store's byte
// limit, so a loop storing ever new pointers forged from large integers
// ends in the memory-limit error like a runaway allocation.
func TestPtrTableLimit(t *testing.T) {
	prog := compileT(t, `int main(void) {
	char *p;
	for (long i = 0; i < 1000; i++) p = (char *)(0x100000000L + i);
	return p != 0;
}`)
	in := New(prog, Options{})
	in.store.MaxBytes = 2000
	if res := in.RunMachine(); !errors.Is(res.Err, mem.ErrLimit) {
		t.Errorf("run under a 2000-byte limit: err %v, UB %v; want %v", res.Err, res.UB, mem.ErrLimit)
	}
}

// TestRunSetupAllocs is the make-check gate for per-run setup: heap
// objects per Run of a short program with globals and sixteen function
// designators (its nine functions and stdio.h's seven). Measured 69, nine
// of them the run's boxed designator pointers (the slice and the eight in
// tab); it was 183 while every object, every indeterminate byte and every
// pointer fragment was its own heap object and each run filled two
// designator maps. The pin, set at about 25% above an earlier 62, sits
// about 13% above.
func TestRunSetupAllocs(t *testing.T) {
	const pin = 78
	prog := compileT(t, setupSrc)
	if n := prog.Designators().Len(); n < 8 {
		t.Fatalf("program has %d designators, want at least 8", n)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if res := Run(prog, Options{}); res.Err != nil || res.UB != nil {
			t.Fatalf("%v %v", res.Err, res.UB)
		}
	})
	t.Logf("%.0f heap objects per run, %d designators", allocs, prog.Designators().Len())
	if allocs > pin {
		t.Errorf("%.0f heap objects per run, want at most %d", allocs, pin)
	}
}
