package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func ringSpan(trace, id uint64, name string) *Span {
	return &Span{TraceID: trace, ID: id, Name: name, Start: time.Unix(0, int64(id)), Dur: time.Millisecond}
}

func TestSpanRingGetFiltersAndSorts(t *testing.T) {
	r := NewSpanRing(64, 1<<20)
	r.CollectSpan(ringSpan(7, 3, "c"))
	r.CollectSpan(ringSpan(9, 10, "other"))
	r.CollectSpan(ringSpan(7, 1, "a"))
	r.CollectSpan(ringSpan(7, 2, "b"))
	got := r.Get(7)
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	for i, want := range []string{"a", "b", "c"} {
		if got[i].Name != want {
			t.Fatalf("span %d = %q, want %q (sorted by start then id)", i, got[i].Name, want)
		}
	}
	if len(r.Get(12345)) != 0 {
		t.Fatal("unknown trace returned spans")
	}
}

func TestSpanRingWrapBoundsCount(t *testing.T) {
	r := NewSpanRing(8, 1<<20)
	for i := uint64(1); i <= 100; i++ {
		r.CollectSpan(ringSpan(1, i, "s"))
	}
	if n := r.Len(); n > 8 {
		t.Fatalf("ring retains %d spans, cap 8", n)
	}
	got := r.Get(1)
	for _, s := range got {
		if s.ID <= 92 {
			t.Fatalf("ring retained span %d after being lapped", s.ID)
		}
	}
}

// TestSpanRingEvictionBytePressure drives a ring over its byte budget and
// checks it reclaims oldest-first back under the budget instead of
// growing or failing writes.
func TestSpanRingEvictionBytePressure(t *testing.T) {
	const budget = 4096
	r := NewSpanRing(1024, budget) // slot bound far above what the budget admits
	fat := make([]byte, 200)
	for i := range fat {
		fat[i] = 'x'
	}
	for i := uint64(1); i <= 500; i++ {
		s := ringSpan(1, i, "fat")
		s.SetAttr("payload", string(fat))
		r.CollectSpan(s)
	}
	if b := r.Bytes(); b > budget {
		t.Fatalf("resident bytes %d exceed budget %d after writes settled", b, budget)
	}
	got := r.Get(1)
	if len(got) == 0 {
		t.Fatal("byte pressure evicted everything including the newest spans")
	}
	for _, s := range got {
		if s.ID <= 400 {
			t.Fatalf("old span %d survived byte-pressure eviction while newer ones were written", s.ID)
		}
	}
}

// TestSpanRingConcurrent hammers the ring from parallel writers and
// readers (run under -race in make check): every span read back must be
// whole and belong to the trace asked for.
func TestSpanRingConcurrent(t *testing.T) {
	r := NewSpanRing(256, 64<<10)
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			trace := uint64(w + 1)
			for i := 0; i < perWorker; i++ {
				s := ringSpan(trace, uint64(i+1), fmt.Sprintf("w%d", w))
				s.SetAttr("i", fmt.Sprint(i))
				r.CollectSpan(s)
			}
		}(w)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				trace := uint64(g + 1)
				for _, s := range r.Get(trace) {
					if s.TraceID != trace {
						t.Errorf("Get(%d) returned span of trace %d", trace, s.TraceID)
						return
					}
					if want := fmt.Sprintf("w%d", trace-1); s.Name != want {
						t.Errorf("torn span: trace %d name %q", trace, s.Name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
}

// TestCollectorsConcurrentMultiWorkerTraces runs many goroutines each
// recording its own trace through the StartSpan API into one shared
// SpanRing — the server's exact collector wiring — and checks every trace
// arrives complete: one root, every child parented on it.
func TestCollectorsConcurrentMultiWorkerTraces(t *testing.T) {
	ring := NewSpanRing(4096, 4<<20)
	const workers = 16
	const children = 5
	traceIDs := make([]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		traceIDs[w] = NewTraceID()
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := WithTraceID(context.Background(), ring, traceIDs[w])
			ctx, root := StartSpan(ctx, "root")
			var inner sync.WaitGroup
			for c := 0; c < children; c++ {
				inner.Add(1)
				go func(c int) {
					defer inner.Done()
					_, sp := StartSpan(ctx, "child")
					sp.SetAttr("c", fmt.Sprint(c))
					sp.End()
				}(c)
			}
			inner.Wait()
			root.End()
		}(w)
	}
	wg.Wait()
	for w, tid := range traceIDs {
		spans := ring.Get(tid)
		if len(spans) != children+1 {
			t.Fatalf("worker %d: SpanRing holds %d spans, want %d", w, len(spans), children+1)
		}
		// Get orders by start time: the root opened before its children.
		root := spans[0]
		if root.Name != "root" || root.Parent != 0 {
			t.Fatalf("worker %d: first span %q (parent %d), want the root", w, root.Name, root.Parent)
		}
		for _, s := range spans[1:] {
			if s.TraceID != tid || s.Name != "child" || s.Parent != root.ID {
				t.Fatalf("worker %d: span %q trace %x parent %d, want a child of %d in %x",
					w, s.Name, s.TraceID, s.Parent, root.ID, tid)
			}
		}
	}
}
