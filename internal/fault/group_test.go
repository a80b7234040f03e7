package fault

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type groupResult struct {
	v      int
	err    error
	shared bool
}

// parkFollowers starts a leader on g.Do(key, fn), waits for fn to be
// entered (fn must signal entered on its first run), then starts n
// followers and waits until all of them are parked on the leader's flight.
// It returns a function that waits for every caller and reports the
// leader's result first.
func parkFollowers(t *testing.T, g *Group[string, int], n int, entered <-chan struct{}, fn func() (int, error)) func() []groupResult {
	t.Helper()
	res := make([]groupResult, n+1)
	var wg sync.WaitGroup
	call := func(i int) {
		defer wg.Done()
		v, err, shared := g.Do(context.Background(), "k", fn)
		res[i] = groupResult{v, err, shared}
	}
	wg.Add(1)
	go call(0)
	<-entered
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go call(i)
	}
	waitParked(t, g, int64(n))
	return func() []groupResult { wg.Wait(); return res }
}

func waitParked(t *testing.T, g *Group[string, int], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Parked < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers parked, want %d", g.Stats().Parked, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupInternalErrorNotShared: N followers parked on a leader whose run
// ends in a contained panic. The panic reaches the leader's caller only;
// one follower re-runs and the rest share the re-run. When the re-run
// fails the same way, that round's followers take its failure — each
// caller re-runs at most once, so fn runs exactly twice either way.
func TestGroupInternalErrorNotShared(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		name      string
		persists  bool
		wantFault int
	}{
		{"recovers", false, 1},
		{"persists", true, n + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g Group[string, int]
			var runs atomic.Int64
			entered, release := make(chan struct{}), make(chan struct{})
			wait := parkFollowers(t, &g, n, entered, func() (int, error) {
				if runs.Add(1) == 1 {
					close(entered)
					<-release
				} else if !tc.persists {
					return 42, nil
				}
				return 0, Contain(StageCompile, "k", "boom")
			})
			close(release)
			res := wait()

			if _, ok := AsInternal(res[0].err); !ok || res[0].shared {
				t.Errorf("leader got %+v, want its own internal error", res[0])
			}
			faults := 0
			for i, r := range res {
				if _, ok := AsInternal(r.err); ok {
					faults++
				} else if r.err != nil || r.v != 42 {
					t.Errorf("caller %d got %+v, want 42", i, r)
				}
			}
			if faults != tc.wantFault {
				t.Errorf("%d callers saw an internal error, want %d", faults, tc.wantFault)
			}
			if got := runs.Load(); got != 2 {
				t.Errorf("fn ran %d times, want 2", got)
			}
			if st := g.Stats(); st.Led != 2 || st.Shared != n-1 || st.Parked != n {
				t.Errorf("stats = %+v, want 2 led / %d shared / %d parked", st, n-1, n)
			}
		})
	}
}

// TestGroupSharesDeterministicError: a failure that is a property of the
// work (bad C) is shared with every follower from one run.
func TestGroupSharesDeterministicError(t *testing.T) {
	const n = 8
	var g Group[string, int]
	var runs atomic.Int64
	bad := errors.New("syntax error")
	entered, release := make(chan struct{}), make(chan struct{})
	wait := parkFollowers(t, &g, n, entered, func() (int, error) {
		runs.Add(1)
		close(entered)
		<-release
		return 0, bad
	})
	close(release)
	for i, r := range wait() {
		if r.err != bad || r.shared != (i > 0) {
			t.Errorf("caller %d got %+v, want the shared error", i, r)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
}

// TestGroupFollowerCancel: a follower whose ctx ends stops waiting with
// ctx.Err(); the flight carries on and still serves the other followers.
func TestGroupFollowerCancel(t *testing.T) {
	var g Group[string, int]
	entered, release := make(chan struct{}), make(chan struct{})
	wait := parkFollowers(t, &g, 1, entered, func() (int, error) {
		close(entered)
		<-release
		return 7, nil
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan groupResult)
	go func() {
		v, err, shared := g.Do(ctx, "k", func() (int, error) { return -1, nil })
		done <- groupResult{v, err, shared}
	}()
	waitParked(t, &g, 2)
	cancel()
	if r := <-done; !errors.Is(r.err, context.Canceled) || r.shared {
		t.Errorf("cancelled follower got %+v, want context.Canceled", r)
	}

	close(release)
	for i, r := range wait() {
		if r.v != 7 || r.err != nil {
			t.Errorf("caller %d got %+v, want 7 from the surviving flight", i, r)
		}
	}
}

// TestGroupForgetsCompletedKeys pins the no-stale-results property:
// single-flight is in-flight deduplication only, so sequential calls each
// run fn, whatever the previous flight's result.
func TestGroupForgetsCompletedKeys(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"success", nil}, // the server's analyze coalescing
		{"deterministic error", errors.New("syntax error")},
		{"internal error", Contain(StageServe, "k", "boom")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var g Group[string, int]
			runs := 0
			fn := func() (int, error) { runs++; return runs, tc.err }
			for i := 1; i <= 2; i++ {
				v, err, shared := g.Do(context.Background(), "k", fn)
				if v != i || err != tc.err || shared {
					t.Fatalf("call %d = (%d, %v, %v), want its own run", i, v, err, shared)
				}
			}
			if len(g.m) != 0 {
				t.Errorf("%d keys still registered after their flights completed", len(g.m))
			}
		})
	}
}

// TestGroupLeaderPanic: a leader whose fn panics abandons its flight; a
// parked follower re-runs instead of waiting forever.
func TestGroupLeaderPanic(t *testing.T) {
	var g Group[string, int]
	entered, release := make(chan struct{}), make(chan struct{})
	var runs atomic.Int64
	res := make(chan groupResult, 1)
	go func() {
		defer func() { recover() }()
		g.Do(context.Background(), "k", func() (int, error) {
			runs.Add(1)
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	go func() {
		v, err, shared := g.Do(context.Background(), "k", func() (int, error) { runs.Add(1); return 9, nil })
		res <- groupResult{v, err, shared}
	}()
	waitParked(t, &g, 1)
	close(release)
	if r := <-res; r.v != 9 || r.err != nil || r.shared {
		t.Errorf("follower got %+v, want its own re-run", r)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("fn ran %d times, want 2", got)
	}
}
