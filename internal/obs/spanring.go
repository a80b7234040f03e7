package obs

// SpanRing is the per-process span store behind GET /v1/spans/{trace}: a
// bounded, lock-free ring of completed spans, indexed on read by trace
// ID. Writers (span End calls from any goroutine) pay one atomic counter
// bump and one pointer swap; there is no lock anywhere, so a hot serving
// path never queues behind a trace read.
//
// Two bounds apply. The slot count caps span *count* (the ring overwrites
// oldest-first once full), and the byte budget caps retained *memory*:
// when the estimated resident bytes exceed the budget, the writer
// reclaims oldest slots until back under. Both bounds degrade by
// forgetting the oldest spans, never by blocking or failing a write.

import (
	"sort"
	"sync/atomic"
)

// DefaultSpanRingSlots and DefaultSpanRingBytes size the serving ring:
// 4096 spans / 4 MiB holds several hundred recent traces.
const (
	DefaultSpanRingSlots = 4096
	DefaultSpanRingBytes = 4 << 20
)

// SpanRing retains the most recent completed spans within a slot and
// byte budget. The zero value is not usable; construct with NewSpanRing.
type SpanRing struct {
	slots  []atomic.Pointer[Span]
	mask   uint64
	head   atomic.Uint64 // next logical write position
	tail   atomic.Uint64 // oldest logical position not yet reclaimed
	bytes  atomic.Int64
	budget int64
}

// NewSpanRing builds a ring with the given slot count (rounded up to a
// power of two; <= 0 means DefaultSpanRingSlots) and byte budget (<= 0
// means DefaultSpanRingBytes).
func NewSpanRing(slots int, byteBudget int64) *SpanRing {
	if slots <= 0 {
		slots = DefaultSpanRingSlots
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	if byteBudget <= 0 {
		byteBudget = DefaultSpanRingBytes
	}
	return &SpanRing{slots: make([]atomic.Pointer[Span], n), mask: uint64(n - 1), budget: byteBudget}
}

// spanCost estimates a span's resident bytes: the struct, its name, and
// its attributes.
func spanCost(s *Span) int64 {
	c := int64(96) + int64(len(s.Name))
	for _, a := range s.Attrs {
		c += int64(32 + len(a.Key) + len(a.Val))
	}
	return c
}

// CollectSpan implements Collector: store a copy of the span, overwrite
// the oldest entry when the ring is full, then reclaim oldest slots while
// over the byte budget.
func (r *SpanRing) CollectSpan(s *Span) {
	cp := *s
	cp.col = nil
	cost := spanCost(&cp)
	idx := r.head.Add(1) - 1
	if old := r.slots[idx&r.mask].Swap(&cp); old != nil {
		cost -= spanCost(old)
	}
	r.bytes.Add(cost)
	for r.bytes.Load() > r.budget {
		t := r.tail.Load()
		h := r.head.Load()
		if t+uint64(len(r.slots)) < h {
			// The ring already lapped this position; the overwrite above
			// accounted its bytes. Catch the tail up.
			r.tail.CompareAndSwap(t, h-uint64(len(r.slots)))
			continue
		}
		if t >= h {
			break // nothing left to reclaim
		}
		if !r.tail.CompareAndSwap(t, t+1) {
			continue // another writer reclaimed it
		}
		if old := r.slots[t&r.mask].Swap(nil); old != nil {
			r.bytes.Add(-spanCost(old))
		}
	}
}

// Get returns copies of the retained spans of one trace, sorted by start
// time then span ID (the deterministic order the assembly endpoints
// serve). Concurrent writers may be overwriting slots during the scan;
// each slot read is one atomic pointer load, so the result is always a
// consistent set of whole spans.
func (r *SpanRing) Get(traceID uint64) []Span {
	var out []Span
	for i := range r.slots {
		if s := r.slots[i].Load(); s != nil && s.TraceID == traceID {
			out = append(out, *s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return spanBefore(&out[i], &out[j]) })
	return out
}

// Len counts currently retained spans.
func (r *SpanRing) Len() int {
	n := 0
	for i := range r.slots {
		if r.slots[i].Load() != nil {
			n++
		}
	}
	return n
}

// Bytes reports the current resident-byte estimate.
func (r *SpanRing) Bytes() int64 { return r.bytes.Load() }
