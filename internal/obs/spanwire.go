package obs

// The span wire form and cross-node trace assembly. A Span itself never
// crosses the network (it holds a live Collector reference and a
// monotonic start time); SpanJSON is the explicit wire shape of
// GET /v1/spans/{trace}, and AssembleChromeTrace stitches span sets from
// several processes — the router and every shard a request touched —
// into one Chrome trace with one named process row per node.

import "time"

// SpanJSON is one span on the wire (undefc.spans/v1 entries).
type SpanJSON struct {
	TraceID string `json:"trace_id"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_unix_ns"`
	DurNS   int64  `json:"dur_ns"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// SpanToJSON converts one span to its wire form.
func SpanToJSON(s *Span) SpanJSON {
	return SpanJSON{
		TraceID: FormatTraceID(s.TraceID),
		ID:      s.ID,
		Parent:  s.Parent,
		Name:    s.Name,
		StartNS: s.Start.UnixNano(),
		DurNS:   int64(s.Dur),
		Attrs:   s.Attrs,
	}
}

// SpansToJSON converts a span list (the SpanRing.Get shape).
func SpansToJSON(spans []Span) []SpanJSON {
	out := make([]SpanJSON, len(spans))
	for i := range spans {
		out[i] = SpanToJSON(&spans[i])
	}
	return out
}

// SpanFromJSON is the inverse of SpanToJSON (col is left nil; the span is
// data, not a live recording handle).
func SpanFromJSON(j SpanJSON) (Span, error) {
	tid, err := ParseTraceID(j.TraceID)
	if err != nil {
		return Span{}, err
	}
	return Span{
		TraceID: tid,
		ID:      j.ID,
		Parent:  j.Parent,
		Name:    j.Name,
		Start:   time.Unix(0, j.StartNS),
		Dur:     time.Duration(j.DurNS),
		Attrs:   j.Attrs,
	}, nil
}

// ProcessSpans is one node's contribution to an assembled trace.
type ProcessSpans struct {
	// Name labels the process row ("router", "shard s1 (inst 3f2a...)").
	Name  string
	Spans []Span
}

// AssembleChromeTrace stitches span sets from several processes into one
// Chrome trace: each process gets its own pid with a process_name
// metadata event, timestamps are rebased to the earliest span start
// across all processes, and events are ordered by start time then span
// ID within each process — deterministic for a given input.
func AssembleChromeTrace(procs []ProcessSpans) *ChromeTrace {
	tr := &ChromeTrace{TraceEvents: []ChromeEvent{}}
	var base time.Time
	haveBase := false
	for _, p := range procs {
		for i := range p.Spans {
			if st := p.Spans[i].Start; !haveBase || st.Before(base) {
				base, haveBase = st, true
			}
		}
	}
	for pi, p := range procs {
		pid := pi + 1
		tr.TraceEvents = append(tr.TraceEvents, ChromeEvent{
			Name: "process_name",
			Ph:   "M",
			PID:  pid,
			Args: map[string]string{"name": p.Name},
		})
		ptrs := make([]*Span, len(p.Spans))
		for i := range p.Spans {
			ptrs[i] = &p.Spans[i]
		}
		tr.TraceEvents = chromeEvents(tr.TraceEvents, ptrs, pid, base)
	}
	return tr
}
