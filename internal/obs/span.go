package obs

// Request tracing in the Dapper style: a request owns a 64-bit trace ID,
// every pipeline stage it touches opens a Span linked to its parent, and a
// Collector receives each span as it ends. The trace context travels
// inside a context.Context, so it crosses the same API boundaries the
// cancellation signal already does (server handler → admission queue →
// coalescer → runner cell → driver compile → interp execute) without any
// new parameters.
//
// The discipline matches the nil-Observer fast path of the event stream:
// when no collector is installed on the context, StartSpan returns the
// context unchanged and a nil *Span, every *Span method is a nil-safe
// no-op, and nothing is allocated — asserted by BenchmarkSpanOverhead and
// TestSpanNoCollectorAllocs, and gated in `make check`. Tracing is
// therefore cheap enough to leave compiled into every stage and armed only
// per sampled request.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Collector receives spans as they end. Implementations must be safe for
// concurrent use: spans from parallel workers of one trace end on
// different goroutines.
type Collector interface {
	CollectSpan(s *Span)
}

// Attr is one key/value span attribute ("tool", "verdict", "cache", ...).
type Attr struct {
	Key string `json:"key"`
	Val string `json:"val"`
}

// Span is one timed, named stage of a traced request. IDs are unique per
// process; Parent is zero on the root span of a trace.
type Span struct {
	TraceID uint64
	ID      uint64
	Parent  uint64
	Name    string
	Start   time.Time
	Dur     time.Duration
	Attrs   []Attr

	col Collector
}

// SetAttr records one attribute. Nil-safe: callers that would pay to
// format a value should check Recording first.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: val})
}

// Recording reports whether the span is live (non-nil), so call sites can
// skip formatting attribute values for untraced requests.
func (s *Span) Recording() bool { return s != nil }

// End stamps the duration and hands the span to its collector. Nil-safe;
// call exactly once per live span.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Dur = time.Since(s.Start)
	if s.col != nil {
		s.col.CollectSpan(s)
	}
}

// traceCtxKey keys the active trace state in a context.Context.
type traceCtxKey struct{}

// traceCtx is the per-context trace state: where spans go, which trace
// they belong to, and which span is the current parent.
type traceCtx struct {
	col     Collector
	traceID uint64
	parent  uint64
}

var (
	spanIDs  atomic.Uint64
	traceIDs atomic.Uint64
)

func init() {
	// Seed the trace-ID sequence from the clock so IDs from successive
	// daemon runs do not collide in shared dashboards; within a process the
	// golden-ratio stride keeps successive IDs far apart.
	traceIDs.Store(uint64(time.Now().UnixNano()))
}

// NewTraceID returns a fresh non-zero 64-bit trace identifier.
func NewTraceID() uint64 {
	for {
		if id := traceIDs.Add(0x9e3779b97f4a7c15); id != 0 {
			return id
		}
	}
}

// FormatTraceID renders a trace ID the way the service exposes it
// (16 hex digits, the /v1/trace/{id} path segment).
func FormatTraceID(id uint64) string { return fmt.Sprintf("%016x", id) }

// ParseTraceID is the inverse of FormatTraceID.
func ParseTraceID(s string) (uint64, error) {
	var id uint64
	if _, err := fmt.Sscanf(s, "%x", &id); err != nil {
		return 0, fmt.Errorf("bad trace id %q: %w", s, err)
	}
	return id, nil
}

// WithTrace installs a collector and a fresh trace ID on ctx: subsequent
// StartSpan calls down this context chain record spans into col. It
// returns the derived context and the trace ID.
func WithTrace(ctx context.Context, col Collector) (context.Context, uint64) {
	id := NewTraceID()
	return context.WithValue(ctx, traceCtxKey{}, &traceCtx{col: col, traceID: id}), id
}

// WithTraceID installs a collector on ctx under an externally assigned
// trace ID. It exists for cross-process trace propagation: a cluster
// router samples a request, stamps the ID on the forwarded hop
// (X-Undefc-Trace-Id), and the shard adopts it here — so the spans the
// shard records land under the identity the client was told, whichever
// shard (or how many, across failovers) ends up serving the request.
func WithTraceID(ctx context.Context, col Collector, id uint64) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, &traceCtx{col: col, traceID: id})
}

// RebindTrace copies the trace state of src onto dst. It exists for the
// detach pattern: a server that severs a request's cancellation (so
// coalesced followers are not killed by the leader's client hanging up)
// still wants the detached work traced under the original request.
func RebindTrace(dst, src context.Context) context.Context {
	if tc, ok := src.Value(traceCtxKey{}).(*traceCtx); ok {
		return context.WithValue(dst, traceCtxKey{}, tc)
	}
	return dst
}

// StartSpan opens a span named name under ctx's current parent and returns
// a derived context in which the new span is the parent. When ctx carries
// no trace (the always-on fast path), it returns ctx unchanged and a nil
// span, and allocates nothing.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	tc, _ := ctx.Value(traceCtxKey{}).(*traceCtx)
	if tc == nil {
		return ctx, nil
	}
	s := &Span{
		TraceID: tc.traceID,
		ID:      spanIDs.Add(1),
		Parent:  tc.parent,
		Name:    name,
		Start:   time.Now(),
		col:     tc.col,
	}
	return context.WithValue(ctx, traceCtxKey{}, &traceCtx{col: tc.col, traceID: tc.traceID, parent: s.ID}), s
}

// SpanBuffer is the simplest collector: it keeps every span, in end order.
// The CLIs use it to write one whole-process trace file (-trace-out).
type SpanBuffer struct {
	mu    sync.Mutex
	spans []*Span
}

// CollectSpan implements Collector.
func (b *SpanBuffer) CollectSpan(s *Span) {
	b.mu.Lock()
	b.spans = append(b.spans, s)
	b.mu.Unlock()
}

// Spans returns the collected spans in end order.
func (b *SpanBuffer) Spans() []*Span {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*Span{}, b.spans...)
}
