package driver

import (
	"sync"
	"testing"

	"repro/internal/ctypes"
)

const cacheTestSrc = `
int add(int a, int b) { return a + b; }
int main(void) { return add(2, 2) - 4; }
`

func TestCacheHitMiss(t *testing.T) {
	c := NewCache()
	p1, err := c.Compile(cacheTestSrc, "t.c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Compile(cacheTestSrc, "t.c", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache hit returned a different *Program")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %d misses / %d hits, want 1/1", st.Misses, st.Hits)
	}
	if st.CompileTime <= 0 {
		t.Error("no compile time accounted for the miss")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
}

// TestCacheSingleFlight runs many goroutines on one key: exactly one
// frontend pass may happen; everyone shares the same program.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	const n = 32
	progs := make([]interface{}, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait()
			p, err := c.Compile(cacheTestSrc, "t.c", Options{})
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}(i)
	}
	start.Done()
	done.Wait()
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("%d goroutines caused %d compiles, want 1", n, st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("hits = %d, want %d", st.Hits, n-1)
	}
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatalf("goroutine %d got a different *Program", i)
		}
	}
}

// TestCacheDistinctKeys: distinct models, defines, and file names must not
// collide.
func TestCacheDistinctKeys(t *testing.T) {
	c := NewCache()
	variants := []Options{
		{},
		{Model: ctypes.ILP32()},
		{Model: ctypes.Int8()},
		{Defines: []string{"X=1"}},
		{Defines: []string{"X=2"}},
		{Defines: []string{"X", "1"}}, // must not collide with "X=1" via joining
	}
	for _, opts := range variants {
		if _, err := c.Compile(cacheTestSrc, "t.c", opts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Compile(cacheTestSrc, "other.c", Options{}); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if want := int64(len(variants) + 1); st.Misses != want || st.Hits != 0 {
		t.Errorf("stats = %d misses / %d hits, want %d/0", st.Misses, st.Hits, want)
	}
	// An explicit LP64 model is the same key as the nil default.
	if _, err := c.Compile(cacheTestSrc, "t.c", Options{Model: ctypes.LP64()}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Errorf("explicit LP64 should hit the default-model entry (hits = %d)", st.Hits)
	}
}

// TestCacheErrorCaching: a failing compile is cached — asked N times, the
// frontend fails once and the error is shared.
func TestCacheErrorCaching(t *testing.T) {
	c := NewCache()
	const bad = "int main(void) { return ; }\n{"
	var firstErr error
	for i := 0; i < 5; i++ {
		_, err := c.Compile(bad, "bad.c", Options{})
		if err == nil {
			t.Fatal("broken program compiled")
		}
		if i == 0 {
			firstErr = err
		} else if err != firstErr {
			t.Errorf("call %d returned a different error value: %v", i, err)
		}
	}
	st := c.Stats()
	if st.Misses != 1 || st.Errors != 1 || st.Hits != 4 {
		t.Errorf("stats = %d misses / %d errors / %d hits, want 1/1/4", st.Misses, st.Errors, st.Hits)
	}
}

// TestCacheWaits pins the single-flight wait counter: hits that find the
// entry still compiling count as waits, sequential hits do not.
func TestCacheWaits(t *testing.T) {
	c := NewCache()
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Compile(cacheTestSrc, "w.c", Options{})
		}()
	}
	wg.Wait()
	c.Compile(cacheTestSrc, "w.c", Options{}) // sequential: a hit, never a wait
	st := c.Stats()
	if st.Misses != 1 || st.Hits != n {
		t.Fatalf("stats = %d misses / %d hits, want 1/%d", st.Misses, st.Hits, n)
	}
	if st.Waits > st.Hits-1 {
		t.Errorf("waits = %d, cannot exceed concurrent hits %d", st.Waits, st.Hits-1)
	}
}

// TestCacheStatsConcurrent is the -race witness for the monitoring
// contract: Stats (and SourceKey) may be polled from any goroutine while
// a worker pool is compiling through the cache.
func TestCacheStatsConcurrent(t *testing.T) {
	c := NewCache()
	stop := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := c.Stats()
			if st.Hits < 0 || st.Misses < 0 {
				t.Error("negative counter snapshot")
				return
			}
			_ = c.Len()
		}
	}()

	srcs := []string{
		"int main(void) { return 0; }",
		"int main(void) { return 1; }",
		"int main(void) { int x; return x; }",
		"int main(void) { return", // compile error: exercises the error counters
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := srcs[(w+i)%len(srcs)]
				c.Compile(src, "stats.c", Options{})
				_ = SourceKey(src, "stats.c", Options{})
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	poller.Wait()

	st := c.Stats()
	if got := st.Hits + st.Misses; got != 8*50 {
		t.Errorf("hits+misses = %d, want %d (every lookup counted exactly once)", got, 8*50)
	}
	if st.Misses != int64(len(srcs)) {
		t.Errorf("misses = %d, want %d (one per distinct unit)", st.Misses, len(srcs))
	}
	if st.Errors != 1 {
		t.Errorf("errors = %d, want 1", st.Errors)
	}
}
