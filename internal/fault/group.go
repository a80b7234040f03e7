package fault

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Deterministic reports whether err is a property of the work itself —
// nil, or a failure every re-run would reproduce — rather than of one
// attempt at it. Transient failures, contained panics, cancellations and
// deadlines belong to the attempt: sharing or memoizing one would pin a
// spurious failure onto work that succeeds on retry.
func Deterministic(err error) bool {
	if IsTransient(err) {
		return false
	}
	if _, ok := AsInternal(err); ok {
		return false
	}
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// Group single-flights work by key: the first caller of Do for a key (the
// leader) runs fn; callers arriving while it runs (followers) wait and
// share its result. It has one rule — followers share only deterministic
// results. A non-deterministic result goes to the leader's own caller
// alone; exactly one waiting follower then re-runs fn as the new leader
// and the rest follow it. Each caller waits through at most one
// non-deterministic result, so a second one goes to that round's
// followers. A key is forgotten once its flight completes: this is
// in-flight deduplication, never a result cache.
//
// The zero Group is ready to use and must not be copied after first use.
type Group[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flight[V]

	led, shared, parked atomic.Int64
}

type flight[V any] struct {
	done chan struct{} // closed once v, err and det are set
	v    V
	err  error
	det  bool
	// retry is the flight that replaces this one after a non-deterministic
	// result; the first follower to wake claims or creates it.
	retry *flight[V]
}

// errAbandoned is the result of a flight whose fn panicked: its followers
// wake to a non-deterministic failure and one of them re-runs.
var errAbandoned = Transient(errors.New("single-flight leader abandoned its flight"))

// GroupStats counts a Group's calls. Led counts calls that ran fn, Shared
// counts calls served another caller's result, and Parked counts calls
// that waited on another caller's flight — a follower that re-leads is
// both Parked and Led. A follower whose ctx ended is only Parked.
type GroupStats struct {
	Led, Shared, Parked int64
}

// Stats snapshots the call counters.
func (g *Group[K, V]) Stats() GroupStats {
	return GroupStats{Led: g.led.Load(), Shared: g.shared.Load(), Parked: g.parked.Load()}
}

// Do runs fn once per concurrent key. shared reports that v and err came
// from another caller's run. A follower stops waiting when ctx ends and
// returns ctx.Err(); the flight it left carries on.
func (g *Group[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	f := g.m[key]
	if f == nil {
		f = g.publish(key)
		g.mu.Unlock()
		return g.lead(key, f, fn)
	}
	g.mu.Unlock()
	g.parked.Add(1)
	for retried := false; ; retried = true {
		select {
		case <-f.done:
		case <-ctx.Done():
			return v, ctx.Err(), false
		}
		if f.det || retried {
			g.shared.Add(1)
			return f.v, f.err, true
		}
		g.mu.Lock()
		if f.retry == nil {
			// First follower awake: join a flight a newcomer already
			// started for the key, or become the new leader.
			if f.retry = g.m[key]; f.retry == nil {
				f.retry = g.publish(key)
				g.mu.Unlock()
				return g.lead(key, f.retry, fn)
			}
		}
		f = f.retry
		g.mu.Unlock()
	}
}

// publish registers a new flight for key. Callers hold g.mu.
func (g *Group[K, V]) publish(key K) *flight[V] {
	if g.m == nil {
		g.m = make(map[K]*flight[V])
	}
	f := &flight[V]{done: make(chan struct{}), err: errAbandoned}
	g.m[key] = f
	return f
}

// lead runs fn for flight f, then classifies, forgets and publishes the
// result, in that order: a follower never sees an unclassified result,
// and a caller arriving after the flight completes starts a fresh one.
func (g *Group[K, V]) lead(key K, f *flight[V], fn func() (V, error)) (V, error, bool) {
	g.led.Add(1)
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(f.done)
	}()
	v, err := fn()
	f.v, f.err, f.det = v, err, Deterministic(err)
	return v, err, false
}
