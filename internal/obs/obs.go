// Package obs is the observability layer of the analysis pipeline: typed
// execution events emitted by the abstract machine (and the surrounding
// driver/runner plumbing), aggregated into counters and histograms that the
// export layer renders as one canonical machine-readable report.
//
// The paper's evaluation (§5.1.2, Figures 2–3) is an aggregate of per-run
// behavior — which checks fired, how much work each tool's profile did,
// where interpreter time went. This package makes that behavior inspectable
// per run: an Observer hooked into interp.Options receives every step,
// memory access, sequence-point flush, UB-check evaluation, scheduler
// choice, and builtin call; Metrics turns the stream into counters;
// Snapshot is the mergeable, JSON-stable result.
//
// The contract with the emitter is strict so the no-observer fast path
// stays free: a nil Observer means no events are constructed at all (one
// nil check per site), and the *Event passed to Event is reused by the
// emitter — observers must copy what they keep.
package obs

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/token"
	"repro/internal/ub"
)

// EventKind discriminates the typed events of the pipeline.
type EventKind uint8

// Event kinds.
const (
	// EvStep: the interpreter charged one unit of its step budget.
	EvStep EventKind = iota
	// EvRead / EvWrite: a checked, typed memory access of Size bytes on an
	// object of the given AccessClass.
	EvRead
	EvWrite
	// EvSeqPoint: the locsWrittenTo/locsRead sets were flushed (§4.2.1);
	// Size carries the number of locations discarded.
	EvSeqPoint
	// EvCheck: one UB check was evaluated against Behavior; Fired reports
	// whether it detected undefined behavior (false = the check passed).
	EvCheck
	// EvSched: the scheduler chose an evaluation order among Fanout
	// unsequenced operands, starting with operand Choice (§2.5.2).
	EvSched
	// EvBuiltin: a library builtin named Name was called.
	EvBuiltin
	// EvFault: a pipeline panic was contained in the stage named Name while
	// processing the unit in Detail (the fault-containment layer's event).
	EvFault

	numEventKinds = iota
)

func (k EventKind) String() string {
	switch k {
	case EvStep:
		return "step"
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvSeqPoint:
		return "seqpoint"
	case EvCheck:
		return "check"
	case EvSched:
		return "sched"
	case EvBuiltin:
		return "builtin"
	case EvFault:
		return "fault"
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// AccessClass classifies the object a memory access touched, mirroring the
// storage-duration split the detection profiles care about (a Valgrind-style
// checker watches the heap but not the stack, §5.1).
type AccessClass uint8

// Access classes.
const (
	ClassStatic AccessClass = iota // file-scope and static-local objects
	ClassAuto                      // block-scope automatic objects
	ClassHeap                      // malloc/calloc/realloc results
	ClassFunc                      // function designators
	ClassString                    // string literals

	numAccessClasses = iota
)

func (c AccessClass) String() string {
	switch c {
	case ClassStatic:
		return "static"
	case ClassAuto:
		return "auto"
	case ClassHeap:
		return "heap"
	case ClassFunc:
		return "func"
	case ClassString:
		return "string"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Event is one typed observation. Only the fields relevant to Kind are set;
// the emitter reuses the struct across calls, so observers MUST NOT retain
// the pointer (copy the value instead).
type Event struct {
	Kind EventKind
	Pos  token.Pos

	// EvRead/EvWrite: Class and Size (bytes). EvSeqPoint: Size (locations
	// flushed).
	Class AccessClass
	Size  int64

	// EvRead/EvWrite: the accessed object and the starting byte offset
	// within it — the per-access footprint [Off, Off+Size) on object Obj.
	// Obj is the mem.ObjID widened to a plain integer so observers can
	// track footprints without importing the memory package. Together with
	// Size this is exactly the locsWrittenTo/locsRead byte-range shape the
	// sequence-point state uses (§4.2.1), which is what makes the event
	// stream usable as a partial-order-reduction independence relation.
	Obj int64
	Off int64

	// EvCheck: the behavior checked and whether it fired.
	Behavior *ub.Behavior
	Fired    bool

	// EvSched: the index chosen first among Fanout operands.
	Choice int
	Fanout int

	// EvBuiltin: the builtin name.
	// EvFault: the pipeline stage that panicked.
	Name string

	// EvFault: the unit being processed when the fault was contained.
	Detail string
}

// String renders the event in the one-line trace form of kcc -trace.
func (e *Event) String() string {
	switch e.Kind {
	case EvStep:
		return fmt.Sprintf("step %s", e.Pos)
	case EvRead, EvWrite:
		return fmt.Sprintf("%s %s %dB %s", e.Kind, e.Class, e.Size, e.Pos)
	case EvSeqPoint:
		return fmt.Sprintf("seqpoint flush=%d", e.Size)
	case EvCheck:
		verdict := "pass"
		if e.Fired {
			verdict = "FIRE"
		}
		return fmt.Sprintf("check %s %05d §%s %s", verdict, e.Behavior.Code, e.Behavior.Section, e.Pos)
	case EvSched:
		return fmt.Sprintf("sched pick %d/%d", e.Choice, e.Fanout)
	case EvBuiltin:
		return fmt.Sprintf("builtin %s %s", e.Name, e.Pos)
	case EvFault:
		return fmt.Sprintf("FAULT contained in %s (%s)", e.Name, e.Detail)
	}
	return e.Kind.String()
}

// Observer receives the event stream. Implementations must treat the
// *Event as borrowed: it is invalid after Event returns.
type Observer interface {
	Event(ev *Event)
}

// KindSet is a set of event kinds, one bit per EventKind.
type KindSet uint16

// allKinds holds every event kind.
const allKinds KindSet = 1<<numEventKinds - 1

// KindsOf returns the set holding exactly the given kinds.
func KindsOf(kinds ...EventKind) KindSet {
	var s KindSet
	for _, k := range kinds {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in s.
func (s KindSet) Has(k EventKind) bool { return s&(1<<k) != 0 }

// KindFilter is an optional Observer extension: an observer that consumes
// only some event kinds declares them, and the emitter skips building the
// rest. Emitters read Kinds once, when the observer is installed.
type KindFilter interface {
	Kinds() KindSet
}

// KindsWanted reports the kinds an emitter must deliver to o: none for a
// nil observer, the declared set for a KindFilter, every kind otherwise.
func KindsWanted(o Observer) KindSet {
	if o == nil {
		return 0
	}
	if f, ok := o.(KindFilter); ok {
		return f.Kinds()
	}
	return allKinds
}

// Multi fans one event stream out to several observers, dropping nils. It
// returns nil when every argument is nil — preserving the emitter's
// nil-observer fast path — and the observer itself when only one remains.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Observer

func (m multi) Event(ev *Event) {
	for _, o := range m {
		o.Event(ev)
	}
}

// Tracer streams events as one line each — the kcc -trace implementation.
// Steps are suppressed unless Steps is set (they dominate the stream).
// Safe for concurrent emitters.
type Tracer struct {
	W io.Writer
	// Steps includes EvStep events (very noisy: one line per evaluation).
	Steps bool

	mu sync.Mutex
	n  int64
}

// Event implements Observer.
func (t *Tracer) Event(ev *Event) {
	if ev.Kind == EvStep && !t.Steps {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.n++
	fmt.Fprintf(t.W, "[obs %6d] %s\n", t.n, ev)
}

// Recorder copies every event — the golden-test observer.
type Recorder struct {
	mu     sync.Mutex
	Events []Event
}

// Event implements Observer.
func (r *Recorder) Event(ev *Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.Events = append(r.Events, *ev)
}

// Lines renders the recorded stream in trace form, one string per event.
func (r *Recorder) Lines() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.Events))
	for i := range r.Events {
		out[i] = r.Events[i].String()
	}
	return out
}
