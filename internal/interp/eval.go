package interp

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/token"
)

// eval computes the value of an expression, applying the LV conversions
// (array→pointer, function→pointer) where the checked type calls for them.
func (in *Interp) eval(e cast.Expr) (mem.Value, error) {
	if err := in.step(e.Pos()); err != nil {
		return nil, err
	}
	switch e := e.(type) {
	case *cast.IntLit:
		return mem.BoxInt(e.T, in.model.Wrap(e.T, e.Value)), nil
	case *cast.FloatLit:
		return mem.Float{T: e.T, F: e.Value}, nil

	case *cast.Ident:
		if e.Sym.Kind == cast.SymFunc {
			return in.funcPtr(e.Sym.Name, e.P)
		}
		lv, err := in.lvalOf(e)
		if err != nil {
			return nil, err
		}
		return in.loadOrDecay(lv, e.P)

	case *cast.StringLit, *cast.CompoundLit:
		lv, err := in.lvalOf(e)
		if err != nil {
			return nil, err
		}
		return in.loadOrDecay(lv, e.Pos())

	case *cast.Index, *cast.Member:
		lv, err := in.lvalOf(e)
		if err != nil {
			return nil, err
		}
		return in.loadOrDecay(lv, e.Pos())

	case *cast.Unary:
		return in.evalUnary(e)
	case *cast.Binary:
		return in.evalBinary(e)
	case *cast.Assign:
		return in.evalAssign(e)
	case *cast.Cond:
		b, err := in.evalCondition(e.C)
		if err != nil {
			return nil, err
		}
		in.seqPoint() // sequence point after the condition
		var branch cast.Expr
		if b {
			branch = e.Then
		} else {
			branch = e.Else
		}
		v, err := in.eval(branch)
		if err != nil {
			return nil, err
		}
		if e.T.Kind == ctypes.Void {
			return mem.Void{}, nil
		}
		return in.convert(v, e.T, e.P)

	case *cast.Comma:
		if _, err := in.eval(e.X); err != nil {
			return nil, err
		}
		in.seqPoint() // the comma operator is a sequence point
		return in.eval(e.Y)

	case *cast.Call:
		return in.evalCall(e)

	case *cast.Cast:
		v, err := in.eval(e.X)
		if err != nil {
			return nil, err
		}
		return in.convert(v, e.To, e.P)

	case *cast.SizeofExpr:
		return in.evalSizeofExpr(e)

	case *cast.SizeofType:
		if e.IsAlign {
			return mem.Int{T: e.T, Bits: uint64(in.model.Align(e.Of))}, nil
		}
		return mem.Int{T: e.T, Bits: uint64(in.model.Size(e.Of))}, nil
	}
	return nil, in.ubError(SiteInternal, e.Pos(), "Unhandled expression %T", e)
}

// loadOrDecay reads an LV as a value, or decays arrays and functions to
// pointers (C11 §6.3.2.1).
func (in *Interp) loadOrDecay(lv LV, pos token.Pos) (mem.Value, error) {
	switch lv.T.Kind {
	case ctypes.Array:
		// Decay requires the object to still be live (§6.2.4).
		p := mem.Ptr{T: lv.T.Decay(), Base: lv.Base, Off: lv.Off}
		if err := in.checkPtrUsable(pos, p); err != nil {
			return nil, err
		}
		return p, nil
	case ctypes.Func:
		return mem.Ptr{T: lv.T.Decay(), Base: lv.Base, Off: 0}, nil
	}
	return in.read(lv, pos)
}

func (in *Interp) funcPtr(name string, pos token.Pos) (mem.Value, error) {
	i, ok := in.funcs.Lookup(name)
	if !ok {
		return nil, in.ubError(siteUndefinedFunc, pos, "Use of undefined function %q", name)
	}
	if in.funcVals == nil {
		in.funcVals = make([]mem.Value, in.funcs.Len())
	}
	if in.funcVals[i] == nil {
		in.funcVals[i] = in.funcs.Ptr(i)
	}
	return in.funcVals[i], nil
}

// lvalOf evaluates an expression to an LV (the paper's [L] : T).
func (in *Interp) lvalOf(e cast.Expr) (LV, error) {
	switch e := e.(type) {
	case *cast.Ident:
		sym := e.Sym
		if id, ok := in.lookupObj(sym); ok {
			return LV{Base: id, Off: 0, T: sym.Type}, nil
		}
		return LV{}, in.ubError(SiteIdentDead, e.P,
			"Referring to object %q outside of its lifetime", e.Name)

	case *cast.StringLit:
		id, err := in.stringLitObj(e)
		if err != nil {
			return LV{}, err
		}
		return LV{Base: id, Off: 0, T: e.T}, nil

	case *cast.CompoundLit:
		// A compound literal designates an object with the lifetime of
		// the enclosing block (automatic) or static at file scope.
		o, err := in.store.Alloc(mem.ObjAuto, in.model.Size(e.Of), "compound literal", e.Of)
		if err != nil {
			return LV{}, err
		}
		in.trackBlockObj(o.ID)
		o.Zero(0, o.Size)
		if err := in.runInitPlan(o.ID, e.Of, e.Plan, false); err != nil {
			return LV{}, err
		}
		return LV{Base: o.ID, Off: 0, T: e.Of}, nil

	case *cast.Unary:
		if e.Op != cast.UDeref {
			return LV{}, in.ubError(SiteInternal, e.P, "Expression is not an LV")
		}
		v, err := in.eval(e.X)
		if err != nil {
			return LV{}, err
		}
		return in.derefLValue(v, e.T, e.P)

	case *cast.Index:
		// a[i] ≡ *(a + i): pointer arithmetic, then an LV.
		p, err := in.evalPtrAdd(e.X, e.I, e.P)
		if err != nil {
			return LV{}, err
		}
		return in.derefLValue(p, e.T, e.P)

	case *cast.Member:
		if e.Arrow {
			v, err := in.eval(e.X)
			if err != nil {
				return LV{}, err
			}
			p, ok := v.(mem.Ptr)
			if !ok {
				return LV{}, in.ubError(SiteNonPtr, e.P, "-> applied to a non-pointer value")
			}
			base, err2 := in.derefLValue(p, p.T.Elem, e.P)
			if err2 != nil {
				return LV{}, err2
			}
			return LV{Base: base.Base, Off: base.Off + e.Field.Offset, T: e.T,
				Bit: e.Field.BitField, BitOff: e.Field.BitOff, BitWidth: e.Field.BitWidth}, nil
		}
		base, err := in.lvalOf(e.X)
		if err != nil {
			return LV{}, err
		}
		return LV{Base: base.Base, Off: base.Off + e.Field.Offset, T: e.T,
			Bit: e.Field.BitField, BitOff: e.Field.BitOff, BitWidth: e.Field.BitWidth}, nil
	}
	return LV{}, in.ubError(SiteInternal, e.Pos(), "Expression %T is not an LV", e)
}

// derefLValue turns a pointer value into an LV of type T: the paper's
// deref rule with its side conditions (§4.1.2).
func (in *Interp) derefLValue(v mem.Value, t *ctypes.Type, pos token.Pos) (LV, error) {
	p, ok := v.(mem.Ptr)
	if !ok {
		return LV{}, in.ubError(SiteNonPtr, pos, "Dereferencing a non-pointer value")
	}
	if err := in.observe(spec.Event{Kind: spec.EvDeref, Pos: pos, Ptr: p, Type: t}); err != nil {
		return LV{}, err
	}
	u := &useDeref
	if t.Kind == ctypes.Void {
		u, t = &useDerefVoid, ctypes.TVoid
	}
	// when L = NULL (deref-neg2 of §4.5.1)
	if _, _, err := in.valid(u, p, 0, pos); err != nil {
		return LV{}, err
	}
	if u == &useDerefVoid && in.armed(siteDerefVoid) {
		// when T = void (deref-neg1 of §4.5.1), before lifetime: "Cannot
		// dereference void pointers".
		return LV{}, in.ubError(siteDerefVoid, pos, "Cannot dereference void pointers")
	}
	return LV{Base: p.Base, Off: p.Off, T: t}, nil
}

// lookupObj resolves a symbol to its current object: a frame slot of the
// current activation (only its locals are visible), else a file-scope
// object.
func (in *Interp) lookupObj(sym *cast.Symbol) (mem.ObjID, bool) {
	if sym.Slot > 0 && len(in.frames) > 0 {
		id := in.curFrame().locals[sym.Slot]
		return id, id != 0
	}
	id, ok := in.globals[sym]
	return id, ok
}

// trackBlockObj registers an object for lifetime termination at the exit of
// the current block.
func (in *Interp) trackBlockObj(id mem.ObjID) {
	if len(in.frames) == 0 {
		return
	}
	f := in.curFrame()
	if len(f.blockStack) == 0 {
		f.pushBlock()
	}
	f.blockStack[len(f.blockStack)-1] = append(f.blockStack[len(f.blockStack)-1], id)
}

// ---------- unary ----------

func (in *Interp) evalUnary(e *cast.Unary) (mem.Value, error) {
	switch e.Op {
	case cast.UAddr:
		return in.evalAddr(e)
	case cast.UDeref:
		lv, err := in.lvalOf(e)
		if err != nil {
			return nil, err
		}
		return in.loadOrDecay(lv, e.P)
	case cast.UPlus, cast.UNeg, cast.UCompl:
		v, err := in.eval(e.X)
		if err != nil {
			return nil, err
		}
		v, err = in.usable(v, e.P)
		if err != nil {
			return nil, err
		}
		v, err = in.convert(v, e.T, e.P)
		if err != nil {
			return nil, err
		}
		return in.unaryArith(e.Op, v, e.P)
	case cast.UNot:
		b, err := in.evalCondition(e.X)
		if err != nil {
			return nil, err
		}
		return truth(!b), nil
	case cast.UPreInc, cast.UPreDec, cast.UPostInc, cast.UPostDec:
		return in.evalIncDec(e)
	}
	return nil, in.ubError(SiteInternal, e.P, "Unhandled unary %v", e.Op)
}

// evalAddr implements &. &*p and &a[i] do not dereference (C11 §6.5.3.2:3).
func (in *Interp) evalAddr(e *cast.Unary) (mem.Value, error) {
	switch x := e.X.(type) {
	case *cast.Unary:
		if x.Op == cast.UDeref {
			v, err := in.eval(x.X)
			if err != nil {
				return nil, err
			}
			p, ok := v.(mem.Ptr)
			if !ok {
				return nil, in.ubError(SiteNonPtr, e.P, "&* applied to a non-pointer")
			}
			p.T = e.T
			return p, nil
		}
	case *cast.Index:
		p, err := in.evalPtrAdd(x.X, x.I, e.P)
		if err != nil {
			return nil, err
		}
		if pp, ok := p.(mem.Ptr); ok {
			pp.T = e.T
			return pp, nil
		}
		return p, nil
	case *cast.Ident:
		if x.Sym.Kind == cast.SymFunc {
			return in.funcPtr(x.Sym.Name, e.P)
		}
	}
	lv, err := in.lvalOf(e.X)
	if err != nil {
		return nil, err
	}
	return mem.Ptr{T: e.T, Base: lv.Base, Off: lv.Off}, nil
}

func (in *Interp) evalIncDec(e *cast.Unary) (mem.Value, error) {
	lv, err := in.lvalOf(e.X)
	if err != nil {
		return nil, err
	}
	old, err := in.read(lv, e.P)
	if err != nil {
		return nil, err
	}
	old, err = in.usable(old, e.P)
	if err != nil {
		return nil, err
	}
	dir := int64(1)
	if e.Op == cast.UPreDec || e.Op == cast.UPostDec {
		dir = -1
	}
	newV, err := in.incDec(old, dir, e.P)
	if err != nil {
		return nil, err
	}
	if err := in.write(lv, newV, e.P); err != nil {
		return nil, err
	}
	if e.Op == cast.UPostInc || e.Op == cast.UPostDec {
		return old, nil
	}
	return newV, nil
}

// unaryArith applies unary +, - or ~ to v, already promoted.
func (in *Interp) unaryArith(op cast.UnaryOp, v mem.Value, pos token.Pos) (mem.Value, error) {
	switch val := v.(type) {
	case mem.Int:
		if op == cast.UPlus {
			return v, nil
		}
		r, err := in.model.Arith(op.Arith(), val.T, val.Bits, 0)
		// -INT_MIN overflows (C11 §6.5:5).
		if err != nil && in.armed(siteNegOverflow) {
			return nil, in.ubError(siteNegOverflow, pos,
				"Signed integer overflow negating the minimum value of %s", val.T)
		}
		return mem.BoxInt(val.T, r), nil
	case mem.Float:
		if op == cast.UNeg {
			return mem.Float{T: val.T, F: -val.F}, nil
		}
		return val, nil
	}
	return nil, in.ubError(SiteInternal, pos, "Bad operand to unary %v", op)
}

// incDec is the value ++ or -- (dir 1 or -1) stores over old. E++ is
// E += 1 (C11 §6.5.3.1:2, §6.5.2.4:2): an integer is incremented in its
// promoted type and converted back. An unsigned operand (unsigned char,
// unsigned short, _Bool) may promote to int, but ±1 on it never overflows
// there, so only a signed operand passes the overflow check.
func (in *Interp) incDec(old mem.Value, dir int64, pos token.Pos) (mem.Value, error) {
	switch v := old.(type) {
	case mem.Int:
		t := in.model.Promote(v.T)
		one := mem.Int{T: t, Bits: in.model.Wrap(t, uint64(dir))}
		var r uint64
		if v.T.IsSigned(in.model) {
			var err error
			if r, err = in.intArith(cast.BAdd, t, v, one, pos); err != nil {
				return nil, err
			}
		} else {
			r, _ = in.model.Arith(ctypes.OpAdd, t, v.Bits, one.Bits)
		}
		return mem.BoxInt(v.T, in.model.Wrap(v.T, r)), nil
	case mem.Float:
		return mem.Float{T: v.T, F: v.F + float64(dir)}, nil
	case mem.Ptr:
		return in.ptrAdd(v, dir, pos)
	}
	return nil, in.ubError(SiteInternal, pos, "Bad operand to ++/--")
}

// ---------- binary ----------

func (in *Interp) evalBinary(e *cast.Binary) (mem.Value, error) {
	switch e.Op {
	case cast.BLogAnd, cast.BLogOr:
		// && and || are sequence points after the first operand.
		b, err := in.evalCondition(e.X)
		if err != nil {
			return nil, err
		}
		in.seqPoint()
		short := (e.Op == cast.BLogAnd && !b) || (e.Op == cast.BLogOr && b)
		if short {
			return truth(e.Op == cast.BLogOr), nil
		}
		b2, err := in.evalCondition(e.Y)
		if err != nil {
			return nil, err
		}
		return truth(b2), nil
	}

	// Other binary operators: operands are unsequenced — ask the scheduler.
	var xv, yv mem.Value
	first, second := in.Order2()
	for _, which := range [2]int{first, second} {
		var err error
		if which == 0 {
			xv, err = in.eval(e.X)
		} else {
			yv, err = in.eval(e.Y)
		}
		if err != nil {
			return nil, err
		}
		in.OperandDone()
	}
	var err error
	if xv, err = in.usable(xv, e.P); err != nil {
		return nil, err
	}
	if yv, err = in.usable(yv, e.P); err != nil {
		return nil, err
	}
	return in.applyBinary(e.Op, xv, yv, e.T, e.P)
}

// applyBinary applies a (non-logical) binary operator to evaluated
// operands. t is the operation's type: the common type of arithmetic, the
// promoted left operand of a shift, the pointer of pointer arithmetic.
func (in *Interp) applyBinary(op cast.BinaryOp, xv, yv mem.Value, t *ctypes.Type, pos token.Pos) (mem.Value, error) {
	xp, xIsPtr := xv.(mem.Ptr)
	yp, yIsPtr := yv.(mem.Ptr)

	switch op {
	case cast.BAdd, cast.BSub:
		if xIsPtr || yIsPtr {
			return in.ptrAddSub(op, xv, yv, pos)
		}
	case cast.BLt, cast.BGt, cast.BLe, cast.BGe:
		if xIsPtr && yIsPtr {
			return in.ptrCompare(op, xp, yp, pos)
		}
	case cast.BEq, cast.BNe:
		if xIsPtr || yIsPtr {
			return in.ptrEquality(op, xv, yv, pos)
		}
	}

	// Usual arithmetic conversions. Comparisons convert the operands to
	// their common type (the node's own type is the int result, which
	// must NOT drive the conversion); a shift promotes each operand on
	// its own (C11 §6.5.7:3).
	common, yt := t, t
	switch op {
	case cast.BShl, cast.BShr:
		yt = in.model.Promote(yv.CType())
	case cast.BLt, cast.BGt, cast.BLe, cast.BGe, cast.BEq, cast.BNe:
		common = in.model.UsualArith(xv.CType(), yv.CType())
		yt = common
	default:
		if t == nil || !t.IsArithmetic() {
			common = in.model.UsualArith(xv.CType(), yv.CType())
			yt = common
		}
	}
	xc, err := in.convert(xv, common, pos)
	if err != nil {
		return nil, err
	}
	yc, err := in.convert(yv, yt, pos)
	if err != nil {
		return nil, err
	}
	xf, ok1 := xc.(mem.Float)
	yf, ok2 := yc.(mem.Float)
	if ok1 && ok2 {
		return in.floatArith(op, xf, yf, pos)
	}
	xi, ok1 := xc.(mem.Int)
	yi, ok2 := yc.(mem.Int)
	if !ok1 || !ok2 {
		return nil, in.ubError(SiteInternal, pos, "Invalid operands to %v", op)
	}
	r, err := in.intArith(op, common, xi, yi, pos)
	if err != nil {
		return nil, err
	}
	if op.Arith().Truth() {
		return mem.BoxInt(ctypes.TInt, r), nil
	}
	return mem.BoxInt(common, r), nil
}

// arithNames name the operators whose signed overflow intArith reports.
var arithNames = [...]string{cast.BAdd: "addition", cast.BSub: "subtraction", cast.BMul: "multiplication"}

// intArith computes the integer operator op on x and y, operands already
// converted to t (for a shift, y is the count in its promoted type),
// through the ctypes core, and reports the evaluations C leaves undefined
// as the profile asks: the §6.5:5 overflow side conditions, the division
// rule of §4.1.1 and the shift rules of §6.5.7.
func (in *Interp) intArith(op cast.BinaryOp, t *ctypes.Type, x, y mem.Int, pos token.Pos) (uint64, error) {
	m := in.model
	r, err := m.Arith(op.Arith(), t, x.Bits, y.Bits)
	switch op {
	case cast.BAdd, cast.BSub, cast.BMul:
		if in.armed(siteOverflow) && t.IsSigned(m) {
			if err != nil {
				return 0, in.ubError(siteOverflow, pos, "Signed integer overflow in %s (%d %v %d as %s)",
					arithNames[op], int64(x.Bits), op, int64(y.Bits), t)
			}
			in.obsCheckPass(siteOverflow, pos)
		}
	case cast.BDiv, cast.BRem:
		// ⟨I / J ⇒ reportError⟩ when J = 0 (§4.1.1). With the check off,
		// the machine traps — the paper's point that a crash is the
		// (lucky) hardware behavior, not a diagnosis.
		if err == ctypes.ErrDivZero {
			if in.armed(siteDivZero) {
				return 0, in.ubError(siteDivZero, pos, "Division by zero")
			}
			return 0, &CrashError{Signal: "SIGFPE", Detail: "integer division by zero"}
		}
		if in.armed(siteDivZero) {
			in.obsCheckPass(siteDivZero, pos)
		}
		if err != nil {
			if in.armed(siteDivOverflow) {
				return 0, in.ubError(siteDivOverflow, pos,
					"Signed overflow dividing the minimum value of %s by -1", t)
			}
			return 0, &CrashError{Signal: "SIGFPE", Detail: "integer overflow in division"}
		}
	case cast.BShl, cast.BShr:
		count := int64(y.Bits)
		if err == ctypes.ErrShiftCount {
			width := m.Size(t) * 8
			if in.armed(siteShiftCount) {
				if !y.T.IsSigned(m) && y.Bits > uint64(width) {
					count = width // a huge unsigned count reads as the width
				}
				return 0, in.ubError(siteShiftCount, pos,
					"Shift count %d is negative or >= the width (%d) of %s", count, width, t)
			}
			// The x86 shifter masks the raw count.
			r, err = m.Arith(op.Arith(), t, x.Bits, y.Bits&uint64(width-1))
		} else if in.armed(siteShiftCount) {
			in.obsCheckPass(siteShiftCount, pos)
		}
		if op == cast.BShl && in.armed(siteShiftOverflow) && t.IsSigned(m) {
			switch err {
			case ctypes.ErrShiftNeg:
				return 0, in.ubError(siteShiftNeg, pos, "Left shift of negative value %d", int64(x.Bits))
			case ctypes.ErrOverflow:
				return 0, in.ubError(siteShiftOverflow, pos,
					"Left shift of %d by %d overflows %s", int64(x.Bits), count, t)
			}
			in.obsCheckPass(siteShiftOverflow, pos)
		}
	}
	// Unsigned arithmetic wraps (not UB), and so does signed arithmetic
	// whose check is off.
	return r, nil
}

func (in *Interp) floatArith(op cast.BinaryOp, x, y mem.Float, pos token.Pos) (mem.Value, error) {
	var f float64
	switch op {
	case cast.BAdd:
		f = x.F + y.F
	case cast.BSub:
		f = x.F - y.F
	case cast.BMul:
		f = x.F * y.F
	case cast.BDiv:
		// Floating division by zero yields ±Inf/NaN under Annex F; we
		// follow IEEE-754 (the §4.5.1 inclusion/exclusion example).
		f = x.F / y.F
	case cast.BLt:
		return truth(x.F < y.F), nil
	case cast.BGt:
		return truth(x.F > y.F), nil
	case cast.BLe:
		return truth(x.F <= y.F), nil
	case cast.BGe:
		return truth(x.F >= y.F), nil
	case cast.BEq:
		return truth(x.F == y.F), nil
	case cast.BNe:
		return truth(x.F != y.F), nil
	default:
		return nil, in.ubError(SiteInternal, pos, "Invalid floating operator %v", op)
	}
	if x.T.Kind == ctypes.Float {
		f = float64(float32(f))
	}
	return mem.Float{T: x.T, F: f}, nil
}

// ---------- pointer operations ----------

// evalPtrAdd evaluates x and i (scheduler-ordered) and forms x + i as a
// pointer.
func (in *Interp) evalPtrAdd(xe, ie cast.Expr, pos token.Pos) (mem.Value, error) {
	var xv, iv mem.Value
	first, second := in.Order2()
	for _, which := range [2]int{first, second} {
		var err error
		if which == 0 {
			xv, err = in.eval(xe)
		} else {
			iv, err = in.eval(ie)
		}
		if err != nil {
			return nil, err
		}
		in.OperandDone()
	}
	var err error
	if xv, err = in.usable(xv, pos); err != nil {
		return nil, err
	}
	if iv, err = in.usable(iv, pos); err != nil {
		return nil, err
	}
	return in.ptrAddSub(cast.BAdd, xv, iv, pos)
}

// ptrAddSub handles ptr±int, int+ptr, and ptr-ptr.
func (in *Interp) ptrAddSub(op cast.BinaryOp, xv, yv mem.Value, pos token.Pos) (mem.Value, error) {
	xp, xIsPtr := xv.(mem.Ptr)
	yp, yIsPtr := yv.(mem.Ptr)
	switch {
	case xIsPtr && yIsPtr:
		if op != cast.BSub {
			return nil, in.ubError(SiteInternal, pos, "Cannot add two pointers")
		}
		return in.ptrSub(xp, yp, pos)
	case xIsPtr:
		n, err := in.intIndex(yv, pos)
		if err != nil {
			return nil, err
		}
		if op == cast.BSub {
			n = -n
		}
		return in.ptrAdd(xp, n, pos)
	case yIsPtr:
		if op == cast.BSub {
			return nil, in.ubError(SiteInternal, pos, "Cannot subtract a pointer from an integer")
		}
		n, err := in.intIndex(xv, pos)
		if err != nil {
			return nil, err
		}
		return in.ptrAdd(yp, n, pos)
	}
	return nil, in.ubError(SiteInternal, pos, "Invalid pointer arithmetic")
}

func (in *Interp) intIndex(v mem.Value, pos token.Pos) (int64, error) {
	switch v := v.(type) {
	case mem.Int:
		return int64(v.Bits), nil
	}
	return 0, in.ubError(SiteInternal, pos, "Pointer offset is not an integer")
}

// ptrAdd forms p + n elements with the §6.5.6:8 bounds side condition:
// the result must point into the same array object or one past its end.
func (in *Interp) ptrAdd(p mem.Ptr, n int64, pos token.Pos) (mem.Value, error) {
	if n == 0 {
		return p, nil
	}
	esize := int64(1)
	if p.T.Kind == ctypes.Ptr && p.T.Elem.IsComplete() {
		esize = in.model.Size(p.T.Elem)
	}
	q := mem.Ptr{T: p.T, Base: p.Base, Off: p.Off + n*esize}
	o, _, err := in.valid(&usePtrAdd, q, 0, pos)
	if err != nil {
		return nil, err
	}
	if o == nil {
		// No object to stay within: the result is forged.
		return mem.Ptr{T: p.T, Base: mem.InvalidBase, Off: p.Off + n}, nil
	}
	return q, nil
}

// ptrSub implements ptr-ptr with the §6.5.6:9 same-object side condition.
func (in *Interp) ptrSub(x, y mem.Ptr, pos token.Pos) (mem.Value, error) {
	if err := in.checkPtrUsable(pos, x, y); err != nil {
		return nil, err
	}
	if x.Base != y.Base {
		if in.armed(sitePtrSub) {
			return nil, in.ubError(sitePtrSub, pos,
				"Subtracting pointers that point into different objects")
		}
		d := int64(x.SynthAddr()) - int64(y.SynthAddr())
		if x.T.Kind == ctypes.Ptr && x.T.Elem.IsComplete() {
			d /= in.model.Size(x.T.Elem)
		}
		return mem.Int{T: ctypes.TLong, Bits: uint64(d)}, nil
	}
	esize := int64(1)
	if x.T.Kind == ctypes.Ptr && x.T.Elem.IsComplete() {
		esize = in.model.Size(x.T.Elem)
	}
	diff := (x.Off - y.Off) / esize
	return mem.Int{T: ctypes.TLong, Bits: uint64(diff)}, nil
}

// ptrCompare implements <, >, <=, >= on pointers. The paper's §4.3.1 rules:
// only pointers with a common base are comparable.
func (in *Interp) ptrCompare(op cast.BinaryOp, x, y mem.Ptr, pos token.Pos) (mem.Value, error) {
	if err := in.checkPtrUsable(pos, x, y); err != nil {
		return nil, err
	}
	if x.Base != y.Base {
		if in.armed(sitePtrCompare) {
			// Evaluation gets stuck: &a < &b has no semantics (§4.3.1).
			return nil, in.ubError(sitePtrCompare, pos,
				"Relational comparison of pointers to different objects")
		}
		// Fallback: compare the synthetic concrete addresses.
		x = mem.Ptr{T: x.T, Base: mem.NullBase, Off: int64(x.SynthAddr())}
		y = mem.Ptr{T: y.T, Base: mem.NullBase, Off: int64(y.SynthAddr())}
	}
	r, _ := in.model.Arith(op.Arith(), ctypes.TLongLong, uint64(x.Off), uint64(y.Off))
	return mem.BoxInt(ctypes.TInt, r), nil
}

// ptrEquality implements == and != with null and integer-zero operands.
func (in *Interp) ptrEquality(op cast.BinaryOp, xv, yv mem.Value, pos token.Pos) (mem.Value, error) {
	toPtr := func(v mem.Value) (mem.Ptr, error) {
		switch v := v.(type) {
		case mem.Ptr:
			return v, nil
		case mem.Int:
			if v.Bits == 0 {
				return mem.Ptr{T: voidPtrType, Base: mem.NullBase}, nil
			}
			return mem.Ptr{T: voidPtrType, Base: mem.InvalidBase, Off: int64(v.Bits)}, nil
		}
		return mem.Ptr{}, in.ubError(SiteInternal, pos, "Comparing a pointer with a non-pointer")
	}
	x, err := toPtr(xv)
	if err != nil {
		return nil, err
	}
	y, err := toPtr(yv)
	if err != nil {
		return nil, err
	}
	if err := in.checkPtrUsable(pos, x, y); err != nil {
		return nil, err
	}
	eq := x.Base == y.Base && x.Off == y.Off || x.IsNull() && y.IsNull()
	return truth(eq == (op == cast.BEq)), nil
}

// truth is the int 1 or 0 a comparison or logical operator yields.
func truth(b bool) mem.Value {
	if b {
		return mem.BoxInt(ctypes.TInt, 1)
	}
	return mem.BoxInt(ctypes.TInt, 0)
}

// ---------- assignment ----------

func (in *Interp) evalAssign(e *cast.Assign) (mem.Value, error) {
	// The two value computations are unsequenced; the write is sequenced
	// after both.
	var lv LV
	var rv mem.Value
	first, second := in.Order2()
	for _, which := range [2]int{first, second} {
		var err error
		if which == 0 {
			lv, err = in.lvalOf(e.L)
		} else {
			rv, err = in.eval(e.R)
		}
		if err != nil {
			return nil, err
		}
		in.OperandDone()
	}
	if e.HasOp {
		old, err := in.read(lv, e.P)
		if err != nil {
			return nil, err
		}
		if old, err = in.usable(old, e.P); err != nil {
			return nil, err
		}
		var urv mem.Value
		var err2 error
		if urv, err2 = in.usable(rv, e.P); err2 != nil {
			return nil, err2
		}
		res, err := in.applyBinary(e.Op, old, urv, in.compoundType(e, old), e.P)
		if err != nil {
			return nil, err
		}
		rv = res
	}
	cv, err := in.convertForStore(rv, lv.T, e.P)
	if err != nil {
		return nil, err
	}
	if err := in.write(lv, cv, e.P); err != nil {
		return nil, err
	}
	// The assignment's value is the value of the left operand after the
	// assignment (C11 §6.5.16:3) — we return the stored value.
	return cv, nil
}

// compoundType is the type of the operation E1 op= E2 performs on the
// value old of E1 (C11 §6.5.16.2:3): the pointer E1 of pointer
// arithmetic, E1 promoted for a shift, else the common type of E1 and E2.
func (in *Interp) compoundType(e *cast.Assign, old mem.Value) *ctypes.Type {
	if _, isPtr := old.(mem.Ptr); isPtr {
		return e.L.Type()
	}
	if e.Op == cast.BShl || e.Op == cast.BShr {
		return in.model.Promote(e.L.Type())
	}
	return in.model.UsualArith(decayed(e.L.Type()), decayed(e.R.Type()))
}

// convertForStore converts a value for storage as type t, allowing raw
// bytes into character objects and aggregate copies.
func (in *Interp) convertForStore(v mem.Value, t *ctypes.Type, pos token.Pos) (mem.Value, error) {
	if b, ok := v.(mem.Bytes); ok {
		if t.IsAggregate() || t.Kind == ctypes.Struct || t.Kind == ctypes.Union {
			return b, nil
		}
	}
	return in.convert(v, t, pos)
}

// decayed re-exports sema's LV-conversion on types for internal use.
func decayed(t *ctypes.Type) *ctypes.Type {
	switch t.Kind {
	case ctypes.Array, ctypes.Func:
		return t.Decay()
	}
	return t
}

// voidPtrType and charPtrType are the void* and char* types of the
// pointers the interpreter makes itself (null and forged comparisons,
// library results). They are shared so no such pointer allocates a type,
// and so the same address stored twice is one pointer-table entry.
var (
	voidPtrType = ctypes.PointerTo(ctypes.TVoid)
	charPtrType = ctypes.PointerTo(ctypes.TChar)
)

// ---------- conditions ----------

// evalCondition evaluates a controlling expression to a truth value.
func (in *Interp) evalCondition(e cast.Expr) (bool, error) {
	v, err := in.eval(e)
	if err != nil {
		return false, err
	}
	v, err = in.usable(v, e.Pos())
	if err != nil {
		return false, err
	}
	if p, ok := v.(mem.Ptr); ok {
		if err := in.checkPtrUsable(e.Pos(), p); err != nil {
			return false, err
		}
	}
	b, ok := mem.IsTruthy(v)
	if !ok {
		return false, in.ubError(SiteInternal, e.Pos(), "Condition has no truth value")
	}
	return b, nil
}

// ---------- sizeof ----------

func (in *Interp) evalSizeofExpr(e *cast.SizeofExpr) (mem.Value, error) {
	t := e.X.Type()
	if t.VLA {
		// sizeof on a VLA evaluates the operand (C11 §6.5.3.4:2): we need
		// the runtime object size.
		lv, err := in.lvalOf(e.X)
		if err != nil {
			return nil, err
		}
		o, err := in.object(lv, e.P)
		if err != nil {
			return nil, err
		}
		return mem.Int{T: e.T, Bits: uint64(o.Size)}, nil
	}
	return mem.Int{T: e.T, Bits: uint64(in.model.Size(t))}, nil
}
