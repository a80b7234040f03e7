package obs

// Latency histograms in the Prometheus style: fixed, log-spaced buckets so
// two histograms merge bucket-wise with no coordination, recorded with
// lock-free atomics so any number of goroutines observe into one histogram
// (or, contention-free, into per-worker shards merged at read time).
// Quantiles are derived server-side by log-linear interpolation inside the
// containing bucket, so /metrics can answer p50/p95/p99 directly instead
// of leaving the percentile math to every client.

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Bucket layout: bucket 0 is the underflow (v <= 1µs), buckets 1..latSpan
// have upper bounds 1µs·2^(i/latSub) (four sub-buckets per octave, a
// ×1.19 resolution), and the last bucket is the overflow. The top finite
// bound is 1µs·2^24 ≈ 16.8s, comfortably past any per-request deadline.
const (
	latMinNS      = int64(time.Microsecond)
	latSub        = 4
	latOctaves    = 24
	latSpan       = latSub * latOctaves
	numLatBuckets = latSpan + 2
)

// HistogramBound returns the upper bound, in nanoseconds, of bucket i.
// The final (overflow) bucket reports math.MaxInt64.
func HistogramBound(i int) int64 {
	if i <= 0 {
		return latMinNS
	}
	if i >= numLatBuckets-1 {
		return math.MaxInt64
	}
	return int64(float64(latMinNS) * math.Exp2(float64(i)/latSub))
}

// latBucketOf maps a duration in nanoseconds to its bucket index.
func latBucketOf(v int64) int {
	if v <= latMinNS {
		return 0
	}
	i := int(math.Ceil(latSub * math.Log2(float64(v)/float64(latMinNS))))
	if i < 1 {
		i = 1
	}
	if i > numLatBuckets-1 {
		i = numLatBuckets - 1
	}
	return i
}

// Histogram is the lock-free recording side. The zero value is ready to
// use and safe for concurrent Observe/Snapshot from any number of
// goroutines; for contention-free fan-in across a fixed worker pool, give
// each worker its own shard via ShardedHistogram.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only when count > 0; raced forward by CAS
	max     atomic.Int64
	hasMin  atomic.Bool
	buckets [numLatBuckets]atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.ObserveNS(d.Nanoseconds()) }

// ObserveNS records one duration given in nanoseconds.
func (h *Histogram) ObserveNS(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[latBucketOf(v)].Add(1)
	if !h.hasMin.Load() {
		// First observation: publish an initial min. The CAS loop below
		// corrects any race between two first observers.
		if h.hasMin.CompareAndSwap(false, true) {
			h.min.Store(v)
		}
	}
	for {
		m := h.min.Load()
		if v >= m || h.min.CompareAndSwap(m, v) {
			break
		}
	}
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			break
		}
	}
}

// Merge folds o's counters into h on the live type: bucket-wise atomic
// adds plus the same min/max CAS races Observe runs, so both sides may
// keep recording during the merge. Bucket addition is associative and
// commutative, so any merge tree over the same histograms yields the
// same totals (the property test in histogram_merge_test.go holds both
// this and the snapshot Merge to that contract). Nil and empty are no-ops.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count.Load() == 0 {
		return
	}
	omin, omax := o.min.Load(), o.max.Load()
	if !h.hasMin.Load() && h.hasMin.CompareAndSwap(false, true) {
		h.min.Store(omin)
	}
	for {
		m := h.min.Load()
		if omin >= m || h.min.CompareAndSwap(m, omin) {
			break
		}
	}
	for {
		m := h.max.Load()
		if omax <= m || h.max.CompareAndSwap(m, omax) {
			break
		}
	}
	h.count.Add(o.count.Load())
	h.sum.Add(o.sum.Load())
	for i := range h.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			h.buckets[i].Add(n)
		}
	}
}

// Reset zeroes the histogram. It is not atomic with respect to concurrent
// Observe calls — a racing observation may straddle the wipe — which is
// acceptable for its one caller, the operator-initiated
// POST /debug/metrics/reset between benchmark runs.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(0)
	h.max.Store(0)
	h.hasMin.Store(false)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Snapshot freezes the histogram into the mergeable, JSON-stable view,
// with p50/p95/p99 precomputed.
func (h *Histogram) Snapshot() *HistogramSnapshot {
	s := &HistogramSnapshot{
		Count:   h.count.Load(),
		SumNS:   h.sum.Load(),
		Buckets: make([]int64, numLatBuckets),
	}
	if s.Count > 0 {
		s.MinNS = h.min.Load()
		s.MaxNS = h.max.Load()
	}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.derive()
	return s
}

// HistogramSnapshot is the frozen view: plain values that round-trip
// through JSON, merge bucket-wise, and subtract for windowed readings.
type HistogramSnapshot struct {
	Count int64 `json:"count"`
	SumNS int64 `json:"sum_ns"`
	MinNS int64 `json:"min_ns,omitempty"`
	MaxNS int64 `json:"max_ns,omitempty"`
	P50NS int64 `json:"p50_ns"`
	P95NS int64 `json:"p95_ns"`
	P99NS int64 `json:"p99_ns"`
	// Buckets[i] counts observations in bucket i (see HistogramBound).
	Buckets []int64 `json:"buckets"`
}

// derive recomputes the precomputed quantile fields from the buckets.
func (s *HistogramSnapshot) derive() {
	s.P50NS = s.Quantile(0.50)
	s.P95NS = s.Quantile(0.95)
	s.P99NS = s.Quantile(0.99)
}

// Quantile estimates the q-quantile (0 < q <= 1) in nanoseconds by
// log-linear interpolation inside the containing bucket; the estimate is
// clamped to the observed min/max. Error is bounded by one bucket width.
func (s *HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, n := range s.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			lo := int64(0)
			if i > 0 {
				lo = HistogramBound(i - 1)
			}
			hi := HistogramBound(i)
			if i == len(s.Buckets)-1 {
				hi = s.MaxNS // overflow bucket: the observed max is the only bound
			}
			frac := (rank - float64(cum)) / float64(n)
			// Interpolate geometrically inside the log-spaced bucket (the
			// documented log-linear scheme); fall back to linear when the
			// lower bound is zero (the underflow bucket has no log scale).
			var est int64
			if lo > 0 && hi > lo {
				est = int64(float64(lo) * math.Pow(float64(hi)/float64(lo), frac))
			} else {
				est = int64(float64(lo) + frac*float64(hi-lo))
			}
			// Clamp to the observed extremes unconditionally: gating the
			// clamp on MinNS/MaxNS != 0 drifted at the zero boundary, where
			// a genuine 0ns minimum was treated as "absent".
			if est < s.MinNS {
				est = s.MinNS
			}
			if est > s.MaxNS {
				est = s.MaxNS
			}
			return est
		}
		cum += n
	}
	return s.MaxNS
}

// Merge folds o into s bucket-wise and rederives the quantiles. Nil is a
// no-op.
func (s *HistogramSnapshot) Merge(o *HistogramSnapshot) {
	if o == nil || o.Count == 0 {
		return
	}
	if s.Buckets == nil {
		s.Buckets = make([]int64, numLatBuckets)
	}
	// o.Count > 0 here, so its extremes are real observations: gate the
	// min on the counts, not on a MinNS != 0 sentinel — a genuine 0ns
	// minimum must win the merge from either side (commutativity).
	if s.Count == 0 || o.MinNS < s.MinNS {
		s.MinNS = o.MinNS
	}
	if s.Count == 0 || o.MaxNS > s.MaxNS {
		s.MaxNS = o.MaxNS
	}
	s.Count += o.Count
	s.SumNS += o.SumNS
	for i := range s.Buckets {
		if i < len(o.Buckets) {
			s.Buckets[i] += o.Buckets[i]
		}
	}
	s.derive()
}

// Sub returns the windowed reading s − o (the observations recorded after
// o was taken): counts and buckets subtract; min/max keep s's values since
// extremes are not subtractable. Callers use it to derive quantiles for a
// bounded interval from two cumulative snapshots of a long-lived daemon.
func (s *HistogramSnapshot) Sub(o *HistogramSnapshot) *HistogramSnapshot {
	out := &HistogramSnapshot{
		Count:   s.Count,
		SumNS:   s.SumNS,
		MinNS:   s.MinNS,
		MaxNS:   s.MaxNS,
		Buckets: append([]int64{}, s.Buckets...),
	}
	if o != nil {
		out.Count -= o.Count
		out.SumNS -= o.SumNS
		for i := range out.Buckets {
			if i < len(o.Buckets) {
				out.Buckets[i] -= o.Buckets[i]
			}
		}
	}
	out.derive()
	return out
}

// Mean is the average observed duration in nanoseconds.
func (s *HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.SumNS) / float64(s.Count)
}

// ShardedHistogram hands out per-goroutine shards and merges them at read
// time: each worker observes only into its own shard (no cross-CPU contention), and bucket addition is
// commutative so the merged snapshot is scheduling-independent.
type ShardedHistogram struct {
	mu     sync.Mutex
	shards []*Histogram
}

// NewShardedHistogram returns an empty shard set.
func NewShardedHistogram() *ShardedHistogram { return &ShardedHistogram{} }

// Shard registers and returns a new shard. Call once per goroutine and
// reuse the result.
func (s *ShardedHistogram) Shard() *Histogram {
	h := &Histogram{}
	s.mu.Lock()
	s.shards = append(s.shards, h)
	s.mu.Unlock()
	return h
}

// Snapshot merges every shard into one frozen view.
func (s *ShardedHistogram) Snapshot() *HistogramSnapshot {
	s.mu.Lock()
	shards := append([]*Histogram{}, s.shards...)
	s.mu.Unlock()
	out := &HistogramSnapshot{Buckets: make([]int64, numLatBuckets)}
	for _, h := range shards {
		out.Merge(h.Snapshot())
	}
	return out
}
