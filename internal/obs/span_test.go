package obs

import (
	"context"
	"strings"
	"testing"
)

func TestSpanTreeAndCollection(t *testing.T) {
	buf := &SpanBuffer{}
	ctx, traceID := WithTrace(context.Background(), buf)
	if traceID == 0 {
		t.Fatal("WithTrace returned zero trace ID")
	}
	ctx, root := StartSpan(ctx, "root")
	if !root.Recording() {
		t.Fatal("root span not recording under an installed collector")
	}
	cctx, child := StartSpan(ctx, "child")
	_, grand := StartSpan(cctx, "grandchild")
	grand.SetAttr("k", "v")
	grand.End()
	child.End()
	root.End()

	spans := buf.Spans()
	if len(spans) != 3 {
		t.Fatalf("collected %d spans, want 3", len(spans))
	}
	// End order: deepest first.
	if spans[0].Name != "grandchild" || spans[1].Name != "child" || spans[2].Name != "root" {
		t.Fatalf("unexpected collection order: %s, %s, %s", spans[0].Name, spans[1].Name, spans[2].Name)
	}
	if spans[2].Parent != 0 {
		t.Fatalf("root parent = %d, want 0", spans[2].Parent)
	}
	if spans[1].Parent != spans[2].ID || spans[0].Parent != spans[1].ID {
		t.Fatal("parent links do not form the start chain")
	}
	for _, s := range spans {
		if s.TraceID != traceID {
			t.Fatalf("span %s trace ID %d, want %d", s.Name, s.TraceID, traceID)
		}
	}
	if len(spans[0].Attrs) != 1 || spans[0].Attrs[0] != (Attr{"k", "v"}) {
		t.Fatalf("grandchild attrs = %v", spans[0].Attrs)
	}
}

func TestSpanNoCollectorIsNilAndFree(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "nope")
	if sp != nil {
		t.Fatal("StartSpan without a collector returned a live span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without a collector derived a new context")
	}
	// All methods are nil-safe no-ops.
	sp.SetAttr("k", "v")
	sp.End()
	if sp.Recording() {
		t.Fatal("nil span reports Recording")
	}

	allocs := testing.AllocsPerRun(1000, func() {
		c, s := StartSpan(ctx, "hot")
		s.SetAttr("k", "v")
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("no-collector span path allocates %.1f times, want 0", allocs)
	}
}

// BenchmarkSpanOverhead is the always-on cost gate (wired into
// `make check` with an alloc assertion): starting and ending a span on a
// context with no collector must allocate nothing.
func BenchmarkSpanOverhead(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, s := StartSpan(ctx, "hot")
		s.End()
		_ = c
	}
}

func TestRebindTrace(t *testing.T) {
	buf := &SpanBuffer{}
	src, traceID := WithTrace(context.Background(), buf)
	src, root := StartSpan(src, "root")

	// Detach cancellation but keep the trace (the coalescing-leader pattern).
	detached := RebindTrace(context.Background(), src)
	_, sp := StartSpan(detached, "detached-child")
	sp.End()
	root.End()

	spans := buf.Spans()
	if len(spans) != 2 {
		t.Fatalf("collected %d spans, want 2", len(spans))
	}
	if spans[0].TraceID != traceID || spans[0].Parent != spans[1].ID {
		t.Fatal("rebound span lost its trace identity or parent link")
	}
	// Rebinding from an untraced context is a no-op.
	if got := RebindTrace(context.Background(), context.Background()); got.Value(traceCtxKey{}) != nil {
		t.Fatal("RebindTrace invented trace state")
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	id := NewTraceID()
	s := FormatTraceID(id)
	if len(s) != 16 {
		t.Fatalf("FormatTraceID(%d) = %q, want 16 hex digits", id, s)
	}
	back, err := ParseTraceID(s)
	if err != nil || back != id {
		t.Fatalf("ParseTraceID(%q) = %d, %v; want %d", s, back, err, id)
	}
	if _, err := ParseTraceID("not-hex"); err == nil {
		t.Fatal("ParseTraceID accepted garbage")
	}
}

func TestChromeTraceFrom(t *testing.T) {
	buf := &SpanBuffer{}
	ctx, _ := WithTrace(context.Background(), buf)
	ctx, root := StartSpan(ctx, "root")
	_, child := StartSpan(ctx, "child")
	child.SetAttr("tool", "kcc")
	child.End()
	root.End()

	tr := ChromeTraceFrom(buf.Spans())
	if len(tr.TraceEvents) != 2 {
		t.Fatalf("%d trace events, want 2", len(tr.TraceEvents))
	}
	// Start order: root first, despite end order being child-first.
	if tr.TraceEvents[0].Name != "root" || tr.TraceEvents[1].Name != "child" {
		t.Fatalf("event order %s, %s; want root, child", tr.TraceEvents[0].Name, tr.TraceEvents[1].Name)
	}
	if tr.TraceEvents[0].TS != 0 {
		t.Fatalf("timestamps not rebased: root ts = %d", tr.TraceEvents[0].TS)
	}
	if got := tr.TraceEvents[1].Args["tool"]; got != "kcc" {
		t.Fatalf("child args missing attr: %v", tr.TraceEvents[1].Args)
	}

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, buf.Spans()); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"traceEvents"`) {
		t.Fatal("WriteChromeTrace output missing traceEvents envelope")
	}
}
