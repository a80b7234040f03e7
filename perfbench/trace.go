package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/obs"
)

// tracer keeps every span of a traced run in memory and writes them as
// one Chrome trace when the run ends. A nil *tracer traces nothing, and
// the contexts it hands out then carry no collector, so the program's
// own spans cost nothing either.
type tracer struct {
	buf obs.SpanBuffer
	// remote holds the cross-node traces pulled from the cluster router,
	// each aligned to the start of the benchmark span of its request.
	remote []remoteTrace
}

type remoteTrace struct {
	start time.Time
	tr    obs.ChromeTrace
}

// op starts the root span of one op under a fresh trace identity.
func (t *tracer) op(ctx context.Context, name string) (context.Context, *obs.Span) {
	if t == nil {
		return ctx, nil
	}
	ctx, _ = obs.WithTrace(ctx, &t.buf)
	return obs.StartSpan(ctx, name)
}

// opWithID is op under a caller-chosen trace identity (the one a serve
// request pins on the router with X-Undefc-Trace-Id).
func (t *tracer) opWithID(ctx context.Context, name string, id uint64) (context.Context, *obs.Span) {
	if t == nil {
		return ctx, nil
	}
	return obs.StartSpan(obs.WithTraceID(ctx, &t.buf, id), name)
}

// spans returns the in-process spans whose name is name.
func (t *tracer) spans(name string) []*obs.Span {
	var out []*obs.Span
	for _, s := range t.buf.Spans() {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write renders the in-process spans as process "perfbench" and appends
// every pulled router trace as further process rows.
func (t *tracer) write(path string) error {
	all := t.buf.Spans()
	spans := make([]obs.Span, len(all))
	var base time.Time
	for i, s := range all {
		spans[i] = *s
		if i == 0 || s.Start.Before(base) {
			base = s.Start
		}
	}
	tr := obs.AssembleChromeTrace([]obs.ProcessSpans{{Name: "perfbench", Spans: spans}})
	pid := 1
	for _, r := range t.remote {
		// A router trace is rebased to its own first span, which is the
		// forward hop that began as the benchmark sent the request.
		shift := r.start.Sub(base).Microseconds()
		maxPID := 0
		for _, ev := range r.tr.TraceEvents {
			if ev.Ph == "X" {
				ev.TS += shift
			}
			if ev.PID > maxPID {
				maxPID = ev.PID
			}
			ev.PID += pid
			tr.TraceEvents = append(tr.TraceEvents, ev)
		}
		pid += maxPID
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(tr); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	return nil
}
