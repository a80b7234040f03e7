// Package fault is the fault-containment layer of the analysis pipeline.
//
// The paper's thesis is that undefined inputs must produce a *diagnosed*
// outcome, never silent misbehavior. This package holds the pipeline to the
// same bar for its own failures: a panic anywhere in cpp/lexer/parser/sema/
// interp is contained at the stage boundary and converted into a typed
// InternalError that travels through reports like any other verdict,
// instead of tearing down the worker pool and losing every in-flight
// result. The package also classifies failures as transient (worth one
// retry) or deterministic (quarantined), and provides a seeded,
// replayable fault Injector used by tests to prove containment.
package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Pipeline stages, used to attribute a contained fault.
const (
	StageCompile = "compile" // preprocess/parse/typecheck (driver)
	StageAnalyze = "analyze" // a tool's analysis of one program
	StageRunner  = "runner"  // suite-runner plumbing around a cell
	StageServe   = "serve"   // a server request handler (internal/server)
)

// InternalError is a contained panic: the pipeline misbehaved, the fault
// was caught at a stage boundary, and the evidence (stage, unit, recovered
// value, stack) is carried as a value. All fields are plain strings so the
// error embeds directly into the undefc.report/v1 JSON schema.
type InternalError struct {
	// Stage is the pipeline stage that panicked (Stage* constants).
	Stage string `json:"stage"`
	// Unit names the translation unit or case being processed.
	Unit string `json:"unit,omitempty"`
	// Value is the rendered panic value.
	Value string `json:"value"`
	// Stack is the recovered goroutine stack.
	Stack string `json:"stack,omitempty"`
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("internal error in %s stage (%s): %s", e.Stage, e.Unit, e.Value)
}

// Relayed is a panic recovered on one goroutine and raised again on
// another, whose caller can contain it: a pool of workers relays a
// worker's panic to the goroutine that started the pool. Value is the
// original panic value and Stack the stack of the goroutine it happened
// on, which is the evidence worth keeping.
type Relayed struct {
	Value any
	Stack string
}

// Relay wraps a value recovered in a deferred handler, capturing the
// panicking goroutine's stack. A value relayed before keeps its origin.
func Relay(r any) *Relayed {
	if p, ok := r.(*Relayed); ok {
		return p
	}
	return &Relayed{Value: r, Stack: string(debug.Stack())}
}

// Error renders the original value and stack, so even an uncontained
// relayed panic shows where it happened.
func (p *Relayed) Error() string {
	return fmt.Sprintf("%v\n\nrelayed from:\n%s", p.Value, p.Stack)
}

// Contain converts a recovered panic value into an *InternalError,
// capturing the current stack. Call it from a deferred recover handler.
// A Relayed panic is reported by its original value and stack.
func Contain(stage, unit string, r any) *InternalError {
	if p, ok := r.(*Relayed); ok {
		return &InternalError{Stage: stage, Unit: unit, Value: fmt.Sprint(p.Value), Stack: p.Stack}
	}
	return &InternalError{
		Stage: stage,
		Unit:  unit,
		Value: fmt.Sprint(r),
		Stack: string(debug.Stack()),
	}
}

// Recover is the deferred form of containment:
//
//	func Compile(...) (prog *Program, err error) {
//		defer fault.Recover(fault.StageCompile, file, &err)
//		...
//	}
//
// A panic in the function body is converted into an *InternalError
// assigned to *errp; a normal return leaves *errp untouched.
func Recover(stage, unit string, errp *error) {
	if r := recover(); r != nil {
		*errp = Contain(stage, unit, r)
	}
}

// Guard runs fn under panic containment: a panic in fn returns as an
// *InternalError instead of unwinding into the caller.
func Guard(stage, unit string, fn func() error) (err error) {
	defer Recover(stage, unit, &err)
	return fn()
}

// AsInternal reports whether err is (or wraps) a contained panic.
func AsInternal(err error) (*InternalError, bool) {
	var ie *InternalError
	if errors.As(err, &ie) {
		return ie, true
	}
	return nil, false
}

// TransientError marks a failure as transient: re-running the same work
// may succeed, so the runner's degradation policy retries it once before
// quarantining. Compile caches must never memoize a transient failure.
type TransientError struct{ Err error }

func (e *TransientError) Error() string { return "transient: " + e.Err.Error() }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// Transient wraps err as transient; nil stays nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &TransientError{Err: err}
}

// IsTransient reports whether err is (or wraps) a TransientError.
func IsTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}
