// Package interp executes checked C programs under the paper's executable
// semantics, detecting undefined behavior as it runs (the reproduction of
// kcc's dynamic semantics).
//
// The interpreter's state is organized as the configuration of Figure 1:
// a computation (the Go call stack of eval/exec), a global environment
// (genv), memory (mem.Store), the locsWrittenTo/locsRead sequence-point
// sets, the notWritable const set, and a call stack of local environments.
// Every semantic rule that the paper arms with side conditions (§4.1),
// extra state (§4.2), or symbolic values (§4.3) has its counterpart here,
// annotated with the C11 subclause it enforces.
package interp

import (
	"context"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sema"
	"repro/internal/spec"
	"repro/internal/token"
	"repro/internal/ub"
)

// Options configure an execution.
type Options struct {
	// Engine selects the execution engine: "" or "tree" is the reference
	// tree-walking evaluator; other names resolve through RegisterEngine
	// (internal/vm registers "vm"). Every engine must produce byte-identical
	// verdicts and observer event sequences; the tree walker is the oracle.
	Engine string
	// Out receives the program's standard output.
	Out io.Writer
	// Sched decides evaluation order for unsequenced operands; nil means
	// left-to-right.
	Sched Scheduler
	// Budget bounds execution; zero fields take DefaultBudget values.
	// Exceeding the budget yields a BudgetError, which is NOT a UB verdict.
	Budget Budget
	// Context, when non-nil, cancels execution: the step loop polls
	// Context.Done() and surfaces cancellation as a CancelError.
	Context context.Context
	// Observer, when non-nil, receives typed execution events (steps,
	// memory accesses, sequence points, UB checks, scheduler choices,
	// builtin calls). Nil costs one predictable branch per event site.
	Observer obs.Observer
	// Profile selects which undefined behaviors are detected (nil means
	// the full kcc profile). See Profile for the baseline-tool profiles.
	Profile *Profile
	// Monitors are declarative negative specifications (§4.5.2) checked
	// against the machine's next actions, independent of the Profile.
	Monitors spec.Set
	// Args are the program's command-line arguments (argv[0] is the
	// program name and is prepended automatically).
	Args []string
	// Injector, when set, fires the interp.step fault site on every step
	// with the program's file as the unit. An armed injector also makes
	// the step loop poll Context on every step (not every 1024th), so
	// delay-rule cancellation tests observe the cancel deterministically.
	Injector *fault.Injector
}

// BudgetError reports that execution exceeded its step or depth budget.
type BudgetError struct{ Msg string }

func (e *BudgetError) Error() string { return "budget exhausted: " + e.Msg }

// CancelError reports that Options.Context was canceled mid-execution.
type CancelError struct {
	Cause error
	Pos   token.Pos
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("execution canceled at %s: %v", e.Pos, e.Cause)
}

// Unwrap exposes the cancellation cause, so errors.Is can distinguish a
// watchdog expiry (context.DeadlineExceeded) from a run being stopped
// (context.Canceled).
func (e *CancelError) Unwrap() error { return e.Cause }

// ExitError reports a voluntary program exit (exit() or abort()).
type ExitError struct {
	Code    int
	Aborted bool
}

func (e *ExitError) Error() string {
	if e.Aborted {
		return "program aborted"
	}
	return fmt.Sprintf("program exited with status %d", e.Code)
}

// Result is the outcome of a run.
type Result struct {
	ExitCode int
	UB       *ub.Error // non-nil if undefined behavior was detected
	Err      error     // non-UB failure (budget, internal limit)
	Output   string    // captured stdout when Options.Out was nil
}

// Interp executes one program.
type Interp struct {
	prog  *sema.Program
	model *ctypes.Model
	store *mem.Store
	out   io.Writer
	sched Scheduler
	opts  Options

	globals map[*cast.Symbol]mem.ObjID
	statics map[*cast.Decl]mem.ObjID // static locals, allocated once
	strLits map[*cast.StringLit]mem.ObjID
	funcs   *sema.FuncTable // the program's designators, objects 1..len
	// funcVals[i] is designator i's pointer, boxed on the run's first use;
	// nil until the run uses a designator.
	funcVals []mem.Value

	gates gate // the profile's gates and gateAlways; see armed

	frames []*frame
	seq    []*seqState // one per function activation

	volatileLocs map[mem.Loc]struct{}

	steps    int64
	budget   Budget
	rngState uint64 // rand()

	// tracker is Options.Sched's OperandTracker extension, cached at New
	// so the per-operand notification is one nil check when absent.
	tracker OperandTracker
	// synthCasts counts conversions that exposed a synthetic object
	// address as an integer value (ptr→int casts, pointer-byte
	// concretization). Synthetic addresses depend on allocation order, so
	// the search's partial-order reduction must treat an operand that
	// exposes one as conflicting with any operand that allocates.
	synthCasts int64

	obs obs.Observer // nil = no events (fast path)
	// obsKinds is the set of event kinds obs consumes (empty without an
	// observer): every emission site tests its kind here, so an event the
	// observer would discard is never built.
	obsKinds obs.KindSet
	obsEv    obs.Event // scratch event, reused so emission never allocates
	// cov counts this run's check evaluations; RunMachine adds it to the
	// global coverage ledger when the run ends, however it ends.
	cov     *obs.CoverageTally
	encBuf  []mem.Byte      // scratch for encode, reused so stores never allocate
	encArr  [16]mem.Byte    // encBuf's first backing array
	ctxDone <-chan struct{} // cached Options.Context.Done(); nil = no deadline
	ctx     context.Context

	outBuf *strings.Builder // captures output when opts.Out == nil
}

// frame is one function activation: the paper's `local` cell.
type frame struct {
	fn *cast.FuncDef
	// locals binds the function's frame slots (cast.Symbol.Slot, 1..
	// fn.NumSlots) to their current objects; 0 is unbound. Index 0 is
	// never a slot.
	locals []mem.ObjID
	// blockStack tracks objects allocated per lexical block so their
	// lifetime ends at block exit (C11 §6.2.4).
	blockStack [][]mem.ObjID
}

// pushFrame opens the activation of fd. Like pushSeq, each call depth
// reuses one frame, its locals array and its block lists, so a call
// allocates no bookkeeping once its depth has been reached before.
func (in *Interp) pushFrame(fd *cast.FuncDef) *frame {
	n := len(in.frames)
	var f *frame
	if n < cap(in.frames) {
		f = in.frames[:n+1][n]
	}
	if f == nil {
		f = &frame{}
		in.frames = append(in.frames, f)
	} else {
		in.frames = in.frames[:n+1]
	}
	f.fn = fd
	f.locals = slices.Grow(f.locals[:0], fd.NumSlots+1)[:fd.NumSlots+1]
	clear(f.locals)
	f.blockStack = f.blockStack[:0]
	f.pushBlock()
	return f
}

// popFrame ends the current activation: every object its blocks still
// track dies with it.
func (in *Interp) popFrame() {
	f := in.curFrame()
	for _, ids := range f.blockStack {
		for _, id := range ids {
			in.store.Kill(id)
		}
	}
	in.frames = in.frames[:len(in.frames)-1]
}

// pushBlock opens a lexical block, reusing the list of a block that
// exited at this depth.
func (f *frame) pushBlock() {
	n := len(f.blockStack)
	if n < cap(f.blockStack) {
		f.blockStack = f.blockStack[:n+1]
		f.blockStack[n] = f.blockStack[n][:0]
		return
	}
	f.blockStack = append(f.blockStack, nil)
}

// popBlock closes f's innermost block, ending the lifetime of every
// object it tracked (C11 §6.2.4).
func (in *Interp) popBlock(f *frame) {
	n := len(f.blockStack) - 1
	for _, id := range f.blockStack[n] {
		in.store.Kill(id)
	}
	f.blockStack = f.blockStack[:n]
}

// seqState is the sequence-point state of one activation: the paper's
// locsWrittenTo cell (§4.2.1) plus the read set used for the
// write-after-read direction of C11 §6.5:2.
type seqState struct {
	written seqSet
	read    seqSet
}

// pushSeq opens an empty sequence-point state for a new activation. The
// states of returned activations stay above the stack's top, so each call
// depth reuses one state — and the backing arrays of its sets — instead of
// allocating a new one per call.
func (in *Interp) pushSeq() {
	if n := len(in.seq); n < cap(in.seq) {
		if s := in.seq[:n+1][n]; s != nil {
			s.written.Clear()
			s.read.Clear()
			in.seq = in.seq[:n+1]
			return
		}
	}
	in.seq = append(in.seq, &seqState{})
}

// seqSpill is the set size past which a seqSet abandons its linear-scan
// slice for a map. Almost every full expression touches well under this
// many bytes; only aggregate copies inside one expression cross it.
const seqSpill = 64

// seqSet is a set of byte locations accessed since the last sequence
// point. The working set between two sequence points is nearly always a
// handful of bytes, so membership is a linear scan over a short slice —
// no hashing, no allocation after the first few appends, and the backing
// array is reused across flushes. A set that outgrows the slice spills
// into a map until the next flush. Both representations deduplicate, so
// Len (the flushed-location count published on seq-point events) is the
// same unique-byte count the old map representation reported.
type seqSet struct {
	locs []mem.Loc
	m    map[mem.Loc]struct{} // non-nil once spilled
}

// ContainsRange reports whether any byte of [off, off+n) is in the set.
func (s *seqSet) ContainsRange(obj mem.ObjID, off, n int64) bool {
	if s.m != nil {
		for i := off; i < off+n; i++ {
			if _, ok := s.m[mem.Loc{Obj: obj, Off: i}]; ok {
				return true
			}
		}
		return false
	}
	for _, l := range s.locs {
		if l.Obj == obj && l.Off >= off && l.Off < off+n {
			return true
		}
	}
	return false
}

// AddRange inserts every byte of [off, off+n).
func (s *seqSet) AddRange(obj mem.ObjID, off, n int64) {
	if s.m == nil && len(s.locs)+int(n) > seqSpill {
		s.m = make(map[mem.Loc]struct{}, 2*seqSpill)
		for _, l := range s.locs {
			s.m[l] = struct{}{}
		}
	}
	if s.m != nil {
		for i := off; i < off+n; i++ {
			s.m[mem.Loc{Obj: obj, Off: i}] = struct{}{}
		}
		return
	}
	// One pass over the set builds a presence mask for [off, off+n);
	// n ≤ seqSpill here, so the mask fits in a word.
	var present uint64
	for _, l := range s.locs {
		if l.Obj == obj && l.Off >= off && l.Off < off+n {
			present |= 1 << uint(l.Off-off)
		}
	}
	for i := int64(0); i < n; i++ {
		if present&(1<<uint(i)) == 0 {
			s.locs = append(s.locs, mem.Loc{Obj: obj, Off: off + i})
		}
	}
}

// Len is the number of distinct locations in the set.
func (s *seqSet) Len() int {
	if s.m != nil {
		return len(s.m)
	}
	return len(s.locs)
}

// Clear empties the set, keeping the slice's backing array and dropping
// any spill map so the next expression is back on the fast path.
func (s *seqSet) Clear() {
	s.locs = s.locs[:0]
	s.m = nil
}

// New prepares an interpreter for prog.
func New(prog *sema.Program, opts Options) *Interp {
	in := &Interp{
		prog:         prog,
		model:        prog.Model,
		store:        mem.NewStore(),
		opts:         opts,
		globals:      make(map[*cast.Symbol]mem.ObjID),
		statics:      make(map[*cast.Decl]mem.ObjID),
		strLits:      make(map[*cast.StringLit]mem.ObjID),
		funcs:        prog.Designators(),
		volatileLocs: make(map[mem.Loc]struct{}),
		rngState:     0x2545F4914F6CDD1D,
	}
	in.encBuf = in.encArr[:0]
	in.out = opts.Out
	if in.out == nil {
		in.outBuf = &strings.Builder{}
		in.out = in.outBuf
	}
	in.sched = opts.Sched
	if in.sched == nil {
		in.sched = LeftToRight{}
	}
	if t, ok := in.sched.(OperandTracker); ok {
		in.tracker = t
	}
	prof := opts.Profile
	if prof == nil {
		prof = KCCProfile()
	}
	in.gates = prof.gates | gateAlways
	in.budget = opts.Budget.WithDefaults()
	in.obs = opts.Observer
	in.obsKinds = obs.KindsWanted(opts.Observer)
	in.cov = obs.NewCoverageTally()
	if opts.Context != nil {
		in.ctx = opts.Context
		in.ctxDone = opts.Context.Done()
	}
	return in
}

// Run executes the program: global initialization, then main(), under
// the engine Options.Engine selects (default: the tree walker).
func Run(prog *sema.Program, opts Options) Result {
	return New(prog, opts).RunMachine()
}

// RunMachine executes a New-prepared interpreter under Options.Engine,
// folding the outcome into a Result exactly as Run does. It exists for
// drivers that need live access to the machine during the run — the
// search's partial-order-reduction recorder reads allocation counters and
// state digests through the Interp it constructed — and must be called at
// most once per Interp.
func (in *Interp) RunMachine() Result {
	// Deferred, so a run that panics (and is contained further up) still
	// adds its counts and the ledger totals stay exact.
	defer in.flushCoverage()
	engine, err := engineFor(in.opts.Engine)
	if err != nil {
		return Result{ExitCode: 1, Err: err}
	}
	code, err := engine(in)
	res := Result{ExitCode: code}
	if in.outBuf != nil {
		res.Output = in.outBuf.String()
	}
	switch e := err.(type) {
	case nil:
	case *ub.Error:
		res.UB = e
	case *ExitError:
		res.ExitCode = e.Code
	default:
		res.Err = err
	}
	return res
}

// Execute initializes globals and calls main, walking the AST.
func (in *Interp) Execute() (int, error) {
	return in.ExecuteWith(in.callUser)
}

// ExecuteWith initializes globals and calls main through the supplied
// engine invoker. Global initialization is engine-independent (init plans
// are interpreted, never compiled), so every engine produces the same
// startup event stream by construction.
func (in *Interp) ExecuteWith(call CallFunc) (int, error) {
	if err := in.initGlobals(); err != nil {
		return in.exitCode(err)
	}
	mainFn, ok := in.prog.Funcs["main"]
	if !ok {
		return 1, fmt.Errorf("program has no main function")
	}
	// Build argv.
	args, err := in.buildArgs(mainFn)
	if err != nil {
		return in.exitCode(err)
	}
	in.pushSeq()
	v, err := call(mainFn, args, mainFn.P)
	if err != nil {
		return in.exitCode(err)
	}
	switch v := v.(type) {
	case mem.Int:
		return int(int32(v.Bits)), nil
	default:
		return 0, nil
	}
}

func (in *Interp) exitCode(err error) (int, error) {
	if e, ok := err.(*ExitError); ok {
		return e.Code, nil
	}
	return 1, err
}

func (in *Interp) buildArgs(mainFn *cast.FuncDef) ([]mem.Value, error) {
	if len(mainFn.Params) == 0 {
		return nil, nil
	}
	argv := append([]string{"a.out"}, in.opts.Args...)
	argc := mem.Int{T: ctypes.TInt, Bits: uint64(len(argv))}
	// argv array: (len+1) pointers, NULL-terminated.
	ptrTy := ctypes.PointerTo(ctypes.PointerTo(ctypes.TChar))
	arr, err := in.store.Alloc(mem.ObjStatic, int64(len(argv)+1)*in.model.SizePtr, "argv", nil)
	if err != nil {
		return nil, err
	}
	for i, a := range argv {
		so, err := in.store.Alloc(mem.ObjStatic, int64(len(a)+1), fmt.Sprintf("argv[%d]", i), nil)
		if err != nil {
			return nil, err
		}
		for j := 0; j < len(a); j++ {
			so.Data[j] = mem.Concrete(a[j])
		}
		so.Data[len(a)] = mem.Concrete(0)
		p := mem.Ptr{T: ctypes.PointerTo(ctypes.TChar), Base: so.ID, Off: 0}
		enc, err := in.encode(p, p.T)
		if err != nil {
			return nil, err
		}
		copy(arr.Data[int64(i)*in.model.SizePtr:], enc)
	}
	// The last pointer is the terminating NULL: all-zero bytes.
	clear(arr.Data[int64(len(argv))*in.model.SizePtr:])
	argvVal := mem.Ptr{T: ptrTy, Base: arr.ID, Off: 0}
	out := []mem.Value{argc, argvVal}
	return out[:len(mainFn.Params)], nil
}

// SiteStep is the fault-injection site fired on every interpreter step
// when an injector is armed; the unit is the program's source file.
var SiteStep = fault.RegisterSite("interp.step")

// step charges one unit of the execution budget. The observability hook is
// a single bit test; the cancellation poll fires every 1024 steps so the
// hot loop never touches channel state in the common case. An armed
// injector disables that batching — fault-injection runs trade speed for a
// deterministic interleaving of delays and cancellation.
func (in *Interp) step(pos token.Pos) error {
	in.steps++
	if in.steps > in.budget.MaxSteps {
		return &BudgetError{Msg: fmt.Sprintf("exceeded %d steps at %s", in.budget.MaxSteps, pos)}
	}
	if in.opts.Injector != nil {
		if err := in.opts.Injector.Fire(SiteStep, in.prog.File); err != nil {
			return err
		}
	}
	if in.ctxDone != nil && (in.steps&1023 == 0 || in.opts.Injector != nil) {
		select {
		case <-in.ctxDone:
			return &CancelError{Cause: in.ctx.Err(), Pos: pos}
		default:
		}
	}
	if in.obsKinds.Has(obs.EvStep) {
		in.obsEv = obs.Event{Kind: obs.EvStep, Pos: pos}
		in.obs.Event(&in.obsEv)
	}
	return nil
}

// Steps reports how many steps the last execution used.
func (in *Interp) Steps() int64 { return in.steps }

// curFrame returns the active function frame.
func (in *Interp) curFrame() *frame { return in.frames[len(in.frames)-1] }

func (in *Interp) curSeq() *seqState { return in.seq[len(in.seq)-1] }

// seqPoint clears the sequence-point sets: the paper's rule
// ⟨seqPoint ⇒ ·⟩k ⟨S ⇒ ·⟩locsWrittenTo (§4.2.1).
func (in *Interp) seqPoint() {
	s := in.curSeq()
	flushed := s.written.Len() + s.read.Len()
	s.written.Clear()
	s.read.Clear()
	if len(in.opts.Monitors) > 0 {
		in.opts.Monitors.Observe(spec.Event{Kind: spec.EvSeqPoint})
	}
	if in.obsKinds.Has(obs.EvSeqPoint) {
		in.obsEv = obs.Event{Kind: obs.EvSeqPoint, Size: int64(flushed)}
		in.obs.Event(&in.obsEv)
	}
}

// observe publishes a next action to the declarative monitors (§4.5.2) and
// returns their veto, if any.
func (in *Interp) observe(ev spec.Event) error {
	if len(in.opts.Monitors) == 0 {
		return nil
	}
	if err := in.opts.Monitors.Observe(ev); err != nil {
		err.Func = in.funcName()
		return err
	}
	return nil
}

// funcName reports the current function for diagnostics.
func (in *Interp) funcName() string {
	if len(in.frames) == 0 {
		return "<startup>"
	}
	return in.curFrame().fn.Name
}

// ubError constructs the checker's verdict value: check site s fired.
// Every fired UB check in the interpreter funnels through here, which makes
// it the single emission point for fired-check events.
func (in *Interp) ubError(s *CheckSite, pos token.Pos, format string, args ...any) *ub.Error {
	in.coverageHit(s.b.Code, true)
	if in.obsKinds.Has(obs.EvCheck) {
		in.obsEv = obs.Event{Kind: obs.EvCheck, Pos: pos, Behavior: s.b, Fired: true}
		in.obs.Event(&in.obsEv)
	}
	return ub.New(s.b, pos, in.funcName(), format, args...)
}

// ---------- global initialization ----------

func (in *Interp) initGlobals() error {
	// Allocate function designator objects first (forward references),
	// in the program's declaration order: designator i is object i+1.
	for i := range in.funcs.Len() {
		in.store.AllocFunc(in.funcs.Name(i))
	}
	// Allocate all global objects (zero-initialized), then run
	// initializers in source order.
	for _, d := range in.prog.Globals {
		if _, done := in.globals[d.Sym]; done {
			continue
		}
		if !d.Type.IsComplete() {
			return fmt.Errorf("%s: global %q has incomplete type %s", d.P, d.Name, d.Type)
		}
		size, err := in.model.SizeOf(d.Type)
		if err != nil {
			return fmt.Errorf("%s: global %q: %v", d.P, d.Name, err)
		}
		o, err := in.store.Alloc(mem.ObjStatic, size, d.Name, d.Type)
		if err != nil {
			return err
		}
		o.Zero(0, size) // static storage duration ⇒ zero-initialized
		in.globals[d.Sym] = o.ID
		in.markQualRanges(o.ID, 0, d.Type)
	}
	in.pushSeq()
	defer func() { in.seq = in.seq[:len(in.seq)-1] }()
	for _, d := range in.prog.Globals {
		if len(d.Plan) == 0 {
			continue
		}
		id := in.globals[d.Sym]
		if err := in.runInitPlan(id, d.Type, d.Plan, false); err != nil {
			return err
		}
	}
	return nil
}

// markQualRanges records const (notWritable, §4.2.2) and volatile byte
// ranges of a newly created object, walking its type. It walks into a type
// only when something inside it is qualified, so a large plain array costs
// nothing here.
func (in *Interp) markQualRanges(obj mem.ObjID, off int64, t *ctypes.Type) {
	if !holdsQual(t) {
		return
	}
	if t.Qual.Has(ctypes.QConst) {
		in.store.MarkNotWritable(obj, off, in.model.Size(t))
	}
	if t.Qual.Has(ctypes.QVolatile) {
		for i := off; i < off+in.model.Size(t); i++ {
			in.volatileLocs[mem.Loc{Obj: obj, Off: i}] = struct{}{}
		}
	}
	switch t.Kind {
	case ctypes.Array:
		if t.ArrayLen > 0 {
			es := in.model.Size(t.Elem)
			for i := int64(0); i < t.ArrayLen; i++ {
				in.markQualRanges(obj, off+i*es, t.Elem)
			}
		}
	case ctypes.Struct:
		in.model.Size(t) // force layout
		for _, f := range t.Fields {
			in.markQualRanges(obj, off+f.Offset, f.Type)
		}
	case ctypes.Union:
		in.model.Size(t)
		for _, f := range t.Fields {
			in.markQualRanges(obj, off+f.Offset, f.Type)
		}
	}
}

// holdsQual reports whether t, an element of it or a member of it is
// const or volatile.
func holdsQual(t *ctypes.Type) bool {
	if t.Qual.Has(ctypes.QConst) || t.Qual.Has(ctypes.QVolatile) {
		return true
	}
	switch t.Kind {
	case ctypes.Array:
		return holdsQual(t.Elem)
	case ctypes.Struct, ctypes.Union:
		for _, f := range t.Fields {
			if holdsQual(f.Type) {
				return true
			}
		}
	}
	return false
}

// runInitPlan applies a resolved initialization plan to an object.
// ignoreConst is true for the object's own initialization (initializing a
// const object is allowed; §4.2.2's notWritable only guards later writes) —
// we therefore write bytes directly rather than through the checked path
// when the target is const.
func (in *Interp) runInitPlan(obj mem.ObjID, objType *ctypes.Type, plan []cast.InitAssign, zeroFirst bool) error {
	if zeroFirst {
		if o, ok := in.store.Obj(obj); ok {
			o.Zero(0, o.Size)
		}
	}
	for _, as := range plan {
		if err := in.initAssign(obj, as); err != nil {
			return err
		}
	}
	return nil
}

func (in *Interp) initAssign(obj mem.ObjID, as cast.InitAssign) error {
	o, ok := in.store.Obj(obj)
	if !ok {
		return fmt.Errorf("initializer for unknown object")
	}
	// String literal into char array.
	if lit, isStr := as.Expr.(*cast.StringLit); isStr && as.Type.Kind == ctypes.Array {
		n := as.Type.ArrayLen
		for i := int64(0); i < n && as.Offset+i < o.Size; i++ {
			var b byte
			if i < int64(len(lit.Value)) {
				b = lit.Value[i]
			}
			o.Data[as.Offset+i] = mem.Concrete(b)
		}
		return nil
	}
	v, err := in.eval(as.Expr)
	if err != nil {
		return err
	}
	v, err = in.convert(v, as.Type, as.Expr.Pos())
	if err != nil {
		return err
	}
	return in.storeRaw(o, as.Offset, as.Type, v)
}

// storeRaw writes a value's representation without the UB checks (used only
// for initialization, which is always allowed).
func (in *Interp) storeRaw(o *mem.Object, off int64, t *ctypes.Type, v mem.Value) error {
	data, err := in.encode(v, t)
	if err != nil {
		return err
	}
	if off < o.Size {
		copy(o.Data[off:], data)
	}
	return nil
}

// encode renders a value as bytes of type t. The returned slice is
// scratch storage owned by the interpreter: it is valid only until the
// next encode call. Every caller copies it into object storage
// immediately, so stores never allocate for scalar values. Encoding a
// pointer fails only when the store's pointer table is over its limit.
func (in *Interp) encode(v mem.Value, t *ctypes.Type) ([]mem.Byte, error) {
	switch v := v.(type) {
	case mem.Int:
		in.encBuf = mem.AppendInt(in.encBuf[:0], in.model, t, v.Bits)
	case mem.Float:
		in.encBuf = mem.AppendFloat(in.encBuf[:0], in.model, t, v.F)
	case mem.Ptr:
		var err error
		if in.encBuf, err = in.store.AppendPtr(in.encBuf[:0], in.model, v); err != nil {
			return nil, err
		}
	case mem.Bytes:
		// Already a private copy (decode copies aggregates out of the
		// object); callers only read it.
		return v.Data, nil
	case RawByte:
		in.encBuf = append(in.encBuf[:0], v.B)
	default:
		return nil, nil
	}
	return in.encBuf, nil
}

// RawByte and noReturn are defined in the mem package (they are values);
// aliases keep the interpreter code readable.
type RawByte = mem.RawByte

type noReturn = mem.NoReturn

// stringLitObj returns (allocating on demand) the object for a string
// literal; the object is read-only (§6.4.5:7).
func (in *Interp) stringLitObj(lit *cast.StringLit) (mem.ObjID, error) {
	if id, ok := in.strLits[lit]; ok {
		return id, nil
	}
	size := int64(len(lit.Value) + 1)
	o, err := in.store.Alloc(mem.ObjString, size, "string literal", lit.T)
	if err != nil {
		return 0, err
	}
	for i, b := range lit.Value {
		o.Data[i] = mem.Concrete(b)
	}
	o.Data[len(lit.Value)] = mem.Concrete(0)
	in.strLits[lit] = o.ID
	return o.ID, nil
}
