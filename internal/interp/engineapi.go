package interp

// Exported execution-core surface for alternative engines (internal/vm).
//
// An engine replaces the *dispatch* of the dynamic semantics — how the
// machine gets from one evaluation step to the next — but never the
// semantics themselves: every UB side condition, every observer event,
// every budget charge, and every scheduler consultation happens inside
// the helpers below, which are the same functions the tree walker runs.
// That is what makes "byte-identical verdicts and event sequences" a
// compile-time property of an engine rather than a test-time hope: an
// engine that only calls these helpers, in the order the tree walker
// would, cannot diverge.
//
// The wrappers are thin (they exist so the unexported hot-path methods
// keep their short names internally) and cost nothing: Go inlines all of
// them.

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/ub"
)

// ---------- machine state ----------

// Model exposes the implementation-defined parameter model.
func (in *Interp) Model() *ctypes.Model { return in.model }

// Program exposes the program under execution.
func (in *Interp) Program() *sema.Program { return in.prog }

// Prof exposes the active UB-check profile. Engines must read the
// profile at run time, not bake it into compiled code: compiled code is
// cached per program and shared across the tool matrix.
func (in *Interp) Prof() *Profile { return in.prof }

// MemStore exposes the memory store for object allocation and lifetime
// termination. Engines must pair every allocation with the same
// TrackBlockObj/MarkQualRanges bookkeeping the tree walker performs.
func (in *Interp) MemStore() *mem.Store { return in.store }

// ---------- stepping, sequencing, scheduling ----------

// Step charges one unit of the execution budget; engines call it at
// every node entry, exactly where the tree walker's eval/exec do.
func (in *Interp) Step(pos token.Pos) error { return in.step(pos) }

// SeqPt performs a sequence point (§4.2.1).
func (in *Interp) SeqPt() { in.seqPoint() }

// Order consults the scheduler for an evaluation order over n
// unsequenced operands and reports the choice to the observer. The order
// is built in perm's backing array (grown only when it is too small), so
// an engine passing a stack buffer schedules without allocating.
func (in *Interp) Order(perm []int, n int) []int { return in.order(perm, n) }

// Order1 is the single-operand scheduling point: no Pick is consulted
// (there is no choice), but the EvSched event is still reported, exactly
// as in.order(perm, 1) would.
func (in *Interp) Order1() {
	if in.obsKinds.Has(obs.EvSched) {
		in.obsEv = obs.Event{Kind: obs.EvSched, Choice: 0, Fanout: 1}
		in.obs.Event(&in.obsEv)
	}
}

// OperandDone tells an OperandTracker scheduler (if one is installed)
// that one operand of the innermost multi-operand scheduling point
// finished evaluating. Engines call it after each successfully evaluated
// operand of a scheduled order with fanout ≥ 2, exactly where the tree
// walker does; error paths skip it, leaving the point incomplete (an
// incomplete point is never pruned). Costs one nil check when no tracker
// is installed.
func (in *Interp) OperandDone() {
	if in.tracker != nil {
		in.tracker.OperandDone()
	}
}

// SynthAddrCasts reports how many times execution has exposed a synthetic
// object address as an integer value so far (ptr→int conversion, pointer
// byte concretization). The counter only moves for pointers into real
// objects — null and forged pointers don't depend on allocation order.
func (in *Interp) SynthAddrCasts() int64 { return in.synthCasts }

// Order2 is the allocation-free two-operand scheduling point. It makes
// the identical Pick(2), Pick(1) calls the general path makes (the Trace
// scheduler logs every Pick, so search replay depends on the sequence)
// and emits the identical EvSched event.
func (in *Interp) Order2() (first, second int) {
	first = in.sched.Pick(2)
	if first != 0 && first != 1 {
		// Mirror the general path, which would index out of range.
		panic("interp: scheduler Pick(2) out of range")
	}
	in.sched.Pick(1)
	if in.obsKinds.Has(obs.EvSched) {
		in.obsEv = obs.Event{Kind: obs.EvSched, Choice: first, Fanout: 2}
		in.obs.Event(&in.obsEv)
	}
	return first, 1 - first
}

// ---------- values ----------

// Usable unwraps values that carry deferred UB (§4.3.3).
func (in *Interp) Usable(v mem.Value, pos token.Pos) (mem.Value, error) { return in.usable(v, pos) }

// Convert converts v to type to (§6.3).
func (in *Interp) Convert(v mem.Value, to *ctypes.Type, pos token.Pos) (mem.Value, error) {
	return in.convert(v, to, pos)
}

// ConvertForStore converts v for storage as type t (aggregate copies
// pass through).
func (in *Interp) ConvertForStore(v mem.Value, t *ctypes.Type, pos token.Pos) (mem.Value, error) {
	return in.convertForStore(v, t, pos)
}

// ZeroOf builds the zero value of t.
func (in *Interp) ZeroOf(t *ctypes.Type) mem.Value { return in.zeroOf(t) }

// ---------- checked memory access ----------

// ReadLV performs a checked read of an LV.
func (in *Interp) ReadLV(lv LV, pos token.Pos) (mem.Value, error) { return in.read(lv, pos) }

// WriteLV performs a checked write of an LV.
func (in *Interp) WriteLV(lv LV, v mem.Value, pos token.Pos) error { return in.write(lv, v, pos) }

// Object resolves an LV's object with the liveness side conditions.
func (in *Interp) Object(lv LV, pos token.Pos, forWrite bool) (*mem.Object, error) {
	return in.object(lv, pos, forWrite)
}

// LoadOrDecay reads an LV as a value, or decays arrays and functions to
// pointers (§6.3.2.1).
func (in *Interp) LoadOrDecay(lv LV, pos token.Pos) (mem.Value, error) {
	return in.loadOrDecay(lv, pos)
}

// DerefLV turns a pointer value into an LV with the deref side
// conditions (§4.1.2).
func (in *Interp) DerefLV(v mem.Value, t *ctypes.Type, pos token.Pos) (LV, error) {
	return in.derefLValue(v, t, pos)
}

// CheckPtrUsable applies the dangling/forged-pointer side conditions.
func (in *Interp) CheckPtrUsable(p mem.Ptr, pos token.Pos) *ub.Error {
	return in.checkPtrUsable(p, pos)
}

// StoreRaw writes a value's representation without the UB checks (legal
// only for initialization).
func (in *Interp) StoreRaw(o *mem.Object, off int64, t *ctypes.Type, v mem.Value) {
	in.storeRaw(o, off, t, v)
}

// ---------- operators ----------

// ApplyBinary applies a (non-logical) binary operator to evaluated,
// usable operands. e supplies the result type for arithmetic and shifts.
func (in *Interp) ApplyBinary(op cast.BinaryOp, xv, yv mem.Value, e *cast.Binary, pos token.Pos) (mem.Value, error) {
	return in.applyBinary(op, xv, yv, e, pos)
}

// IntArith performs integer arithmetic with the §6.5:5 side conditions.
func (in *Interp) IntArith(op cast.BinaryOp, x, y mem.Int, t *ctypes.Type, pos token.Pos) (mem.Value, error) {
	return in.intArith(op, x, y, t, pos)
}

// PtrAdd forms p + n elements with the §6.5.6:8 bounds side condition.
func (in *Interp) PtrAdd(p mem.Ptr, n int64, pos token.Pos) (mem.Value, error) {
	return in.ptrAdd(p, n, pos)
}

// PtrAddSub handles ptr±int, int+ptr, and ptr−ptr.
func (in *Interp) PtrAddSub(op cast.BinaryOp, xv, yv mem.Value, pos token.Pos) (mem.Value, error) {
	return in.ptrAddSub(op, xv, yv, pos)
}

// ---------- symbols and objects ----------

// LookupObj resolves a symbol to its current object (innermost
// activation's locals, then globals).
func (in *Interp) LookupObj(sym *cast.Symbol) (mem.ObjID, bool) { return in.lookupObj(sym) }

// SetLocal binds a symbol to an object in the current activation.
func (in *Interp) SetLocal(sym *cast.Symbol, id mem.ObjID) { in.curFrame().locals[sym] = id }

// LocalObj reports the current activation's binding of a symbol, without
// the fallthrough to globals LookupObj performs (declaration execution
// must not mistake a shadowed global for an allocated local).
func (in *Interp) LocalObj(sym *cast.Symbol) (mem.ObjID, bool) {
	id, ok := in.curFrame().locals[sym]
	return id, ok
}

// TrackBlockObj registers an object for lifetime termination at the exit
// of the current block.
func (in *Interp) TrackBlockObj(id mem.ObjID) { in.trackBlockObj(id) }

// PushBlock enters a lexical block: objects tracked after this call have
// their lifetime ended by the matching PopBlock.
func (in *Interp) PushBlock() {
	f := in.curFrame()
	f.blockStack = append(f.blockStack, nil)
}

// PopBlock exits the current lexical block, ending the lifetime of every
// object it tracked (C11 §6.2.4). Engines call it deferred, exactly like
// the tree walker, so teardown also runs on the error path.
func (in *Interp) PopBlock() {
	f := in.curFrame()
	objs := f.blockStack[len(f.blockStack)-1]
	for _, id := range objs {
		in.store.Kill(id)
	}
	f.blockStack = f.blockStack[:len(f.blockStack)-1]
}

// AllocLocal begins the lifetime of a non-VLA automatic object at block
// entry (the tree walker's lifetime pre-pass).
func (in *Interp) AllocLocal(d *cast.Decl) error { return in.allocLocal(d) }

// StaticObj reports the once-allocated object of a static local.
func (in *Interp) StaticObj(d *cast.Decl) (mem.ObjID, bool) {
	id, ok := in.statics[d]
	return id, ok
}

// SetStaticObj records a static local's object after its one-time
// allocation and initialization.
func (in *Interp) SetStaticObj(d *cast.Decl, id mem.ObjID) { in.statics[d] = id }

// MarkQualRanges records const/volatile byte ranges of a new object.
func (in *Interp) MarkQualRanges(obj mem.ObjID, off int64, t *ctypes.Type) {
	in.markQualRanges(obj, off, t)
}

// StringLitObj interns the read-only object of a string literal.
func (in *Interp) StringLitObj(lit *cast.StringLit) (mem.ObjID, error) { return in.stringLitObj(lit) }

// FuncPtr builds a pointer to a named function's designator object.
func (in *Interp) FuncPtr(name string, pos token.Pos) (mem.Value, error) {
	return in.funcPtr(name, pos)
}

// FrameFunc reports the function of the current activation.
func (in *Interp) FrameFunc() *cast.FuncDef { return in.curFrame().fn }

// ---------- diagnostics and events ----------

// UBErrorf constructs a UB verdict through the single fired-check
// funnel; every diagnosis an engine makes must go through here.
func (in *Interp) UBErrorf(b *ub.Behavior, pos token.Pos, format string, args ...any) *ub.Error {
	return in.ubError(b, pos, format, args...)
}

// CheckPass reports a UB check that was evaluated and did not fire.
func (in *Interp) CheckPass(b *ub.Behavior, pos token.Pos) { in.obsCheckPass(b, pos) }

// ---------- control-flow helpers ----------

// ContainsLabel reports whether the statement subtree contains the
// label (goto propagation across blocks).
func ContainsLabel(s cast.Stmt, label string) bool { return containsLabel(s, label) }

// ContainsStmt reports whether target occurs in the subtree of s
// (switch dispatch).
func ContainsStmt(s, target cast.Stmt) bool { return containsStmt(s, target) }
