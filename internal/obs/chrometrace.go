package obs

// Chrome trace-event export: the span tree rendered in the JSON format
// chrome://tracing and https://ui.perfetto.dev load directly, so a
// `kcc -trace-out trace.json` or a sampled GET /v1/trace/{id} body drops
// straight into a flame view with no further tooling.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"time"
)

// ChromeEvent is one trace-event line ("X" complete events only).
// Timestamps and durations are microseconds, per the format.
type ChromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTrace is the top-level trace file shape.
type ChromeTrace struct {
	TraceEvents []ChromeEvent `json:"traceEvents"`
}

// ChromeTraceFrom converts a span set into trace events on one process
// row, with timestamps rebased to the earliest span start.
func ChromeTraceFrom(spans []*Span) *ChromeTrace {
	var base time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(base) {
			base = s.Start
		}
	}
	return &ChromeTrace{TraceEvents: chromeEvents([]ChromeEvent{}, spans, 1, base)}
}

// chromeEvents appends one "X" event per span to evs: process row pid,
// one thread row per trace (tid = trace ID), timestamps in microseconds
// since base, ordered by start time then span ID so the output is stable
// for a given span set.
func chromeEvents(evs []ChromeEvent, spans []*Span, pid int, base time.Time) []ChromeEvent {
	sorted := append([]*Span{}, spans...)
	sort.Slice(sorted, func(i, j int) bool { return spanBefore(sorted[i], sorted[j]) })
	for _, s := range sorted {
		args := map[string]string{
			"span":   strconv.FormatUint(s.ID, 10),
			"parent": strconv.FormatUint(s.Parent, 10),
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Val
		}
		evs = append(evs, ChromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   s.Start.Sub(base).Microseconds(),
			Dur:  s.Dur.Microseconds(),
			PID:  pid,
			TID:  s.TraceID,
			Args: args,
		})
	}
	return evs
}

// spanBefore orders spans by start time, then span ID.
func spanBefore(a, b *Span) bool {
	if !a.Start.Equal(b.Start) {
		return a.Start.Before(b.Start)
	}
	return a.ID < b.ID
}

// WriteChromeTrace renders the spans as an indented trace-event JSON file.
func WriteChromeTrace(w io.Writer, spans []*Span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ChromeTraceFrom(spans))
}

// TraceFile arms span collection for a command's -trace-out flag. The
// returned context, derived from ctx, carries a collector and a root span
// named root, which the caller may annotate. finish ends the root, writes the collected
// spans to path as Chrome trace-event JSON and reports "<prog>: wrote N
// spans to <path>" (or the failure) on log; it is idempotent, so a command
// may defer it and also call it before printing its result. With path
// empty, TraceFile returns ctx, a nil span and a no-op.
func TraceFile(ctx context.Context, path, prog, root string, log io.Writer) (context.Context, *Span, func()) {
	if path == "" {
		return ctx, nil, func() {}
	}
	buf := &SpanBuffer{}
	ctx, _ = WithTrace(ctx, buf)
	ctx, sp := StartSpan(ctx, root)
	done := false
	return ctx, sp, func() {
		if done {
			return
		}
		done = true
		sp.End()
		spans := buf.Spans()
		f, err := os.Create(path)
		if err == nil {
			if err = WriteChromeTrace(f, spans); err == nil {
				err = f.Close()
			} else {
				f.Close()
			}
		}
		if err != nil {
			fmt.Fprintf(log, "%s: -trace-out: %v\n", prog, err)
			return
		}
		fmt.Fprintf(log, "%s: wrote %d spans to %s\n", prog, len(spans), path)
	}
}
