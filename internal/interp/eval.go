package interp

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/token"
	"repro/internal/ub"
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
	return nil, in.ubError(ub.Catalog[0], e.Pos(), "Unhandled expression %T", e)
}

// loadOrDecay reads an LV as a value, or decays arrays and functions to
// pointers (C11 §6.3.2.1).
func (in *Interp) loadOrDecay(lv LV, pos token.Pos) (mem.Value, error) {
	switch lv.T.Kind {
	case ctypes.Array:
		// Decay requires the object to still be live (§6.2.4).
		p := mem.Ptr{T: lv.T.Decay(), Base: lv.Base, Off: lv.Off}
		if uerr := in.checkPtrUsable(p, pos); uerr != nil {
			return nil, uerr
		}
		return p, nil
	case ctypes.Func:
		return mem.Ptr{T: lv.T.Decay(), Base: lv.Base, Off: 0}, nil
	}
	return in.read(lv, pos)
}

func (in *Interp) funcPtr(name string, pos token.Pos) (mem.Value, error) {
	id, ok := in.funcObj[name]
	if !ok {
		return nil, in.ubError(ub.Catalog[82], pos, "Use of undefined function %q", name)
	}
	sym := in.prog.Symbols[name]
	return mem.Ptr{T: sym.Type.Decay(), Base: id, Off: 0}, nil
}

// lvalOf evaluates an expression to an LV (the paper's [L] : T).
func (in *Interp) lvalOf(e cast.Expr) (LV, error) {
	switch e := e.(type) {
	case *cast.Ident:
		sym := e.Sym
		if id, ok := in.lookupObj(sym); ok {
			return LV{Base: id, Off: 0, T: sym.Type}, nil
		}
		return LV{}, in.ubError(ub.OutsideLifetime, e.P,
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
			return LV{}, in.ubError(ub.Catalog[0], e.P, "Expression is not an LV")
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
				return LV{}, in.ubError(ub.InvalidDeref, e.P, "-> applied to a non-pointer value")
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
	return LV{}, in.ubError(ub.Catalog[0], e.Pos(), "Expression %T is not an LV", e)
}

// derefLValue turns a pointer value into an LV of type T: the paper's
// deref rule with its side conditions (§4.1.2).
func (in *Interp) derefLValue(v mem.Value, t *ctypes.Type, pos token.Pos) (LV, error) {
	p, ok := v.(mem.Ptr)
	if !ok {
		return LV{}, in.ubError(ub.InvalidDeref, pos, "Dereferencing a non-pointer value")
	}
	if err := in.observe(spec.Event{Kind: spec.EvDeref, Pos: pos, Ptr: p, Type: t}); err != nil {
		return LV{}, err
	}
	if p.IsNull() {
		// when L = NULL (deref-neg2 of §4.5.1)
		return LV{}, in.ubError(ub.InvalidDeref, pos, "Dereferencing a null pointer")
	}
	if p.Base == mem.InvalidBase {
		return LV{}, in.ubError(ub.PtrFromInt, pos, "Dereferencing a pointer forged from an integer")
	}
	if t.Kind == ctypes.Void {
		if in.prof.VoidDeref {
			// when T = void (deref-neg1 of §4.5.1): "Cannot dereference
			// void pointers".
			return LV{}, in.ubError(ub.DerefVoid, pos, "Cannot dereference void pointers")
		}
		return LV{Base: p.Base, Off: p.Off, T: ctypes.TVoid}, nil
	}
	if uerr := in.checkPtrUsable(p, pos); uerr != nil {
		return LV{}, uerr
	}
	return LV{Base: p.Base, Off: p.Off, T: t}, nil
}

// lookupObj resolves a symbol to its current object.
func (in *Interp) lookupObj(sym *cast.Symbol) (mem.ObjID, bool) {
	for i := len(in.frames) - 1; i >= 0; i-- {
		if id, ok := in.frames[i].locals[sym]; ok {
			return id, true
		}
		break // only the current activation's locals are visible
	}
	if id, ok := in.globals[sym]; ok {
		return id, true
	}
	return 0, false
}

// trackBlockObj registers an object for lifetime termination at the exit of
// the current block.
func (in *Interp) trackBlockObj(id mem.ObjID) {
	if len(in.frames) == 0 {
		return
	}
	f := in.curFrame()
	if len(f.blockStack) == 0 {
		f.blockStack = append(f.blockStack, nil)
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
		switch val := v.(type) {
		case mem.Int:
			switch e.Op {
			case cast.UPlus:
				return val, nil
			case cast.UNeg:
				// -INT_MIN overflows (C11 §6.5:5).
				if in.prof.Overflow && val.T.IsSigned(in.model) && int64(val.Bits) == in.model.IntMin(val.T) {
					return nil, in.ubError(ub.SignedOverflow, e.P,
						"Signed integer overflow negating the minimum value of %s", val.T)
				}
				return mem.MakeInt(in.model, val.T, -val.Bits), nil
			default:
				return mem.MakeInt(in.model, val.T, ^val.Bits), nil
			}
		case mem.Float:
			if e.Op == cast.UNeg {
				return mem.Float{T: val.T, F: -val.F}, nil
			}
			return val, nil
		}
		return nil, in.ubError(ub.Catalog[0], e.P, "Bad operand to unary %v", e.Op)
	case cast.UNot:
		b, err := in.evalCondition(e.X)
		if err != nil {
			return nil, err
		}
		out := uint64(1)
		if b {
			out = 0
		}
		return mem.BoxInt(ctypes.TInt, out), nil
	case cast.UPreInc, cast.UPreDec, cast.UPostInc, cast.UPostDec:
		return in.evalIncDec(e)
	}
	return nil, in.ubError(ub.Catalog[0], e.P, "Unhandled unary %v", e.Op)
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
				return nil, in.ubError(ub.InvalidDeref, e.P, "&* applied to a non-pointer")
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
	var newV mem.Value
	switch v := old.(type) {
	case mem.Int:
		one := mem.Int{T: v.T, Bits: 1}
		nv, uerr := in.intArith(cast.BAdd, v, mem.Int{T: one.T, Bits: uint64(dir)}, v.T, e.P)
		if uerr != nil {
			return nil, uerr
		}
		newV = nv
	case mem.Float:
		newV = mem.Float{T: v.T, F: v.F + float64(dir)}
	case mem.Ptr:
		nv, uerr := in.ptrAdd(v, dir, e.P)
		if uerr != nil {
			return nil, uerr
		}
		newV = nv
	default:
		return nil, in.ubError(ub.Catalog[0], e.P, "Bad operand to ++/--")
	}
	if err := in.write(lv, newV, e.P); err != nil {
		return nil, err
	}
	if e.Op == cast.UPostInc || e.Op == cast.UPostDec {
		return old, nil
	}
	return newV, nil
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
			out := uint64(0)
			if e.Op == cast.BLogOr {
				out = 1
			}
			return mem.BoxInt(ctypes.TInt, out), nil
		}
		b2, err := in.evalCondition(e.Y)
		if err != nil {
			return nil, err
		}
		out := uint64(0)
		if b2 {
			out = 1
		}
		return mem.BoxInt(ctypes.TInt, out), nil
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
	return in.applyBinary(e.Op, xv, yv, e, e.P)
}

// applyBinary applies a (non-logical) binary operator to evaluated operands.
func (in *Interp) applyBinary(op cast.BinaryOp, xv, yv mem.Value, e *cast.Binary, pos token.Pos) (mem.Value, error) {
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
	case cast.BShl, cast.BShr:
		return in.shift(op, xv, yv, e.T, pos)
	}

	// Usual arithmetic conversions. Comparisons convert the operands to
	// their common type (the node's own type is the int result, which
	// must NOT drive the conversion).
	var common *ctypes.Type
	switch op {
	case cast.BLt, cast.BGt, cast.BLe, cast.BGe, cast.BEq, cast.BNe:
		common = in.model.UsualArith(xv.CType(), yv.CType())
	default:
		common = e.T
		if common == nil || !common.IsArithmetic() {
			common = in.model.UsualArith(xv.CType(), yv.CType())
		}
	}
	xc, err := in.convert(xv, common, pos)
	if err != nil {
		return nil, err
	}
	yc, err := in.convert(yv, common, pos)
	if err != nil {
		return nil, err
	}
	if xf, ok := xc.(mem.Float); ok {
		yf := yc.(mem.Float)
		return in.floatArith(op, xf, yf, pos)
	}
	xi, ok1 := xc.(mem.Int)
	yi, ok2 := yc.(mem.Int)
	if !ok1 || !ok2 {
		return nil, in.ubError(ub.Catalog[0], pos, "Invalid operands to %v", op)
	}
	switch op {
	case cast.BLt, cast.BGt, cast.BLe, cast.BGe, cast.BEq, cast.BNe:
		return in.intCompare(op, xi, yi), nil
	}
	return in.intArith(op, xi, yi, common, pos)
}

// intArith performs integer arithmetic with the §6.5:5 overflow side
// conditions (the division rule of §4.1.1 included).
func (in *Interp) intArith(op cast.BinaryOp, x, y mem.Int, t *ctypes.Type, pos token.Pos) (mem.Value, error) {
	m := in.model
	signed := t.IsSigned(m)
	var raw uint64
	switch op {
	case cast.BAdd:
		raw = x.Bits + y.Bits
		if in.prof.Overflow && signed {
			if addOverflows(int64(x.Bits), int64(y.Bits), m.IntMin(t), int64(m.IntMax(t))) {
				return nil, in.ubError(ub.SignedOverflow, pos,
					"Signed integer overflow in addition (%d + %d as %s)", int64(x.Bits), int64(y.Bits), t)
			}
			in.obsCheckPass(ub.SignedOverflow, pos)
		}
	case cast.BSub:
		raw = x.Bits - y.Bits
		if in.prof.Overflow && signed {
			if subOverflows(int64(x.Bits), int64(y.Bits), m.IntMin(t), int64(m.IntMax(t))) {
				return nil, in.ubError(ub.SignedOverflow, pos,
					"Signed integer overflow in subtraction (%d - %d as %s)", int64(x.Bits), int64(y.Bits), t)
			}
			in.obsCheckPass(ub.SignedOverflow, pos)
		}
	case cast.BMul:
		raw = x.Bits * y.Bits
		if in.prof.Overflow && signed {
			if mulOverflows(int64(x.Bits), int64(y.Bits), m.IntMin(t), int64(m.IntMax(t))) {
				return nil, in.ubError(ub.SignedOverflow, pos,
					"Signed integer overflow in multiplication (%d * %d as %s)", int64(x.Bits), int64(y.Bits), t)
			}
			in.obsCheckPass(ub.SignedOverflow, pos)
		}
	case cast.BDiv, cast.BRem:
		// ⟨I / J ⇒ reportError⟩ when J = 0 (§4.1.1). With the check off,
		// the machine traps — the paper's point that a crash is the
		// (lucky) hardware behavior, not a diagnosis.
		if y.Bits == 0 {
			if in.prof.DivZero {
				return nil, in.ubError(ub.DivByZero, pos, "Division by zero")
			}
			return nil, &CrashError{Signal: "SIGFPE", Detail: "integer division by zero"}
		}
		if in.prof.DivZero {
			in.obsCheckPass(ub.DivByZero, pos)
		}
		if signed {
			sx, sy := int64(x.Bits), int64(y.Bits)
			if sx == m.IntMin(t) && sy == -1 {
				if in.prof.DivZero || in.prof.Overflow {
					return nil, in.ubError(ub.DivOverflow, pos,
						"Signed overflow dividing the minimum value of %s by -1", t)
				}
				return nil, &CrashError{Signal: "SIGFPE", Detail: "integer overflow in division"}
			}
			if op == cast.BDiv {
				raw = uint64(sx / sy)
			} else {
				raw = uint64(sx % sy)
			}
		} else {
			if op == cast.BDiv {
				raw = x.Bits / y.Bits
			} else {
				raw = x.Bits % y.Bits
			}
		}
	case cast.BAnd:
		raw = x.Bits & y.Bits
	case cast.BOr:
		raw = x.Bits | y.Bits
	case cast.BXor:
		raw = x.Bits ^ y.Bits
	default:
		return nil, in.ubError(ub.Catalog[0], pos, "Unhandled integer operator %v", op)
	}
	// Unsigned arithmetic wraps (not UB); Wrap canonicalizes both cases.
	return mem.BoxInt(t, m.Wrap(t, raw)), nil
}

func addOverflows(a, b, min, max int64) bool {
	if b > 0 {
		return a > max-b
	}
	return a < min-b
}

func subOverflows(a, b, min, max int64) bool {
	if b < 0 {
		return a > max+b
	}
	return a < min+b
}

func mulOverflows(a, b, min, max int64) bool {
	if a == 0 || b == 0 {
		return false
	}
	p := a * b
	if a == -1 && b == min || b == -1 && a == min {
		return true
	}
	if p/b != a {
		return true
	}
	return p > max || p < min
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
	case cast.BLt, cast.BGt, cast.BLe, cast.BGe, cast.BEq, cast.BNe:
		var b bool
		switch op {
		case cast.BLt:
			b = x.F < y.F
		case cast.BGt:
			b = x.F > y.F
		case cast.BLe:
			b = x.F <= y.F
		case cast.BGe:
			b = x.F >= y.F
		case cast.BEq:
			b = x.F == y.F
		case cast.BNe:
			b = x.F != y.F
		}
		out := uint64(0)
		if b {
			out = 1
		}
		return mem.BoxInt(ctypes.TInt, out), nil
	default:
		return nil, in.ubError(ub.Catalog[0], pos, "Invalid floating operator %v", op)
	}
	if x.T.Kind == ctypes.Float {
		f = float64(float32(f))
	}
	return mem.Float{T: x.T, F: f}, nil
}

func (in *Interp) intCompare(op cast.BinaryOp, x, y mem.Int) mem.Value {
	signed := x.T.IsSigned(in.model)
	var b bool
	if signed {
		sx, sy := int64(x.Bits), int64(y.Bits)
		switch op {
		case cast.BLt:
			b = sx < sy
		case cast.BGt:
			b = sx > sy
		case cast.BLe:
			b = sx <= sy
		case cast.BGe:
			b = sx >= sy
		case cast.BEq:
			b = sx == sy
		case cast.BNe:
			b = sx != sy
		}
	} else {
		switch op {
		case cast.BLt:
			b = x.Bits < y.Bits
		case cast.BGt:
			b = x.Bits > y.Bits
		case cast.BLe:
			b = x.Bits <= y.Bits
		case cast.BGe:
			b = x.Bits >= y.Bits
		case cast.BEq:
			b = x.Bits == y.Bits
		case cast.BNe:
			b = x.Bits != y.Bits
		}
	}
	out := uint64(0)
	if b {
		out = 1
	}
	return mem.BoxInt(ctypes.TInt, out)
}

// shift implements << and >> with the §6.5.7 side conditions.
func (in *Interp) shift(op cast.BinaryOp, xv, yv mem.Value, t *ctypes.Type, pos token.Pos) (mem.Value, error) {
	xc, err := in.convert(xv, t, pos)
	if err != nil {
		return nil, err
	}
	x, ok := xc.(mem.Int)
	if !ok {
		return nil, in.ubError(ub.Catalog[0], pos, "Invalid shift operand")
	}
	ycv, err := in.convert(yv, in.model.Promote(yv.CType()), pos)
	if err != nil {
		return nil, err
	}
	y, ok := ycv.(mem.Int)
	if !ok {
		return nil, in.ubError(ub.Catalog[0], pos, "Invalid shift count")
	}
	width := in.model.Size(t) * 8
	count := int64(y.Bits)
	if !y.T.IsSigned(in.model) {
		count = int64(y.Bits) // already non-negative as unsigned
		if y.Bits > uint64(width) {
			count = width // force the too-far diagnosis below
		}
	}
	if count < 0 || count >= width {
		if in.prof.Shift {
			return nil, in.ubError(ub.ShiftTooFar, pos,
				"Shift count %d is negative or >= the width (%d) of %s", count, width, t)
		}
		count &= width - 1 // the x86 shifter masks the count
	} else if in.prof.Shift {
		in.obsCheckPass(ub.ShiftTooFar, pos)
	}
	signed := t.IsSigned(in.model)
	if op == cast.BShl {
		if signed && in.prof.Shift {
			sx := int64(x.Bits)
			if sx < 0 {
				return nil, in.ubError(ub.ShiftNegLeft, pos, "Left shift of negative value %d", sx)
			}
			// §6.5.7:4: sx × 2^count must be representable.
			if count > 0 && sx > int64(in.model.IntMax(t))>>uint(count) {
				return nil, in.ubError(ub.ShiftOverflow, pos,
					"Left shift of %d by %d overflows %s", sx, count, t)
			}
			in.obsCheckPass(ub.ShiftOverflow, pos)
		}
		return mem.MakeInt(in.model, t, x.Bits<<uint(count)), nil
	}
	if signed {
		return mem.MakeInt(in.model, t, uint64(int64(x.Bits)>>uint(count))), nil
	}
	return mem.MakeInt(in.model, t, x.Bits>>uint(count)), nil
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
			return nil, in.ubError(ub.Catalog[0], pos, "Cannot add two pointers")
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
			return nil, in.ubError(ub.Catalog[0], pos, "Cannot subtract a pointer from an integer")
		}
		n, err := in.intIndex(xv, pos)
		if err != nil {
			return nil, err
		}
		return in.ptrAdd(yp, n, pos)
	}
	return nil, in.ubError(ub.Catalog[0], pos, "Invalid pointer arithmetic")
}

func (in *Interp) intIndex(v mem.Value, pos token.Pos) (int64, error) {
	switch v := v.(type) {
	case mem.Int:
		if v.T.IsSigned(in.model) {
			return int64(v.Bits), nil
		}
		return int64(v.Bits), nil
	}
	return 0, in.ubError(ub.Catalog[0], pos, "Pointer offset is not an integer")
}

// ptrAdd forms p + n elements with the §6.5.6:8 bounds side condition:
// the result must point into the same array object or one past its end.
func (in *Interp) ptrAdd(p mem.Ptr, n int64, pos token.Pos) (mem.Value, error) {
	if n == 0 {
		return p, nil
	}
	if p.IsNull() {
		if in.prof.PtrCompare {
			return nil, in.ubError(ub.PtrArithBounds, pos, "Arithmetic on a null pointer")
		}
		return mem.Ptr{T: p.T, Base: mem.InvalidBase, Off: n}, nil
	}
	if p.Base == mem.InvalidBase {
		p.Off += n
		return p, nil
	}
	if uerr := in.checkPtrUsable(p, pos); uerr != nil {
		return nil, uerr
	}
	o, ok := in.store.Obj(p.Base)
	if !ok {
		return nil, in.ubError(ub.InvalidDeref, pos, "Arithmetic on an invalid pointer")
	}
	esize := int64(1)
	if p.T.Kind == ctypes.Ptr && p.T.Elem.IsComplete() {
		esize = in.model.Size(p.T.Elem)
	}
	newOff := p.Off + n*esize
	if newOff < 0 || newOff > o.Size {
		watched := in.prof.StackBounds
		if o.Kind == mem.ObjHeap {
			watched = in.prof.HeapBounds
		}
		if watched {
			return nil, in.ubError(ub.PtrArithBounds, pos,
				"Pointer arithmetic produces an address outside object %s (offset %d of size %d)",
				o.Name, newOff, o.Size)
		}
	}
	p.Off = newOff
	return p, nil
}

// ptrSub implements ptr-ptr with the §6.5.6:9 same-object side condition.
func (in *Interp) ptrSub(x, y mem.Ptr, pos token.Pos) (mem.Value, error) {
	if uerr := in.checkPtrUsable(x, pos); uerr != nil {
		return nil, uerr
	}
	if uerr := in.checkPtrUsable(y, pos); uerr != nil {
		return nil, uerr
	}
	if x.Base != y.Base {
		if in.prof.PtrCompare {
			return nil, in.ubError(ub.PtrSubDifferent, pos,
				"Subtracting pointers that point into different objects")
		}
		d := int64(synthAddr(x)) - int64(synthAddr(y))
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
	if uerr := in.checkPtrUsable(x, pos); uerr != nil {
		return nil, uerr
	}
	if uerr := in.checkPtrUsable(y, pos); uerr != nil {
		return nil, uerr
	}
	if x.Base != y.Base {
		if in.prof.PtrCompare {
			// Evaluation gets stuck: &a < &b has no semantics (§4.3.1).
			return nil, in.ubError(ub.PtrCompareDifferent, pos,
				"Relational comparison of pointers to different objects")
		}
		// Fallback: compare the synthetic concrete addresses.
		x = mem.Ptr{T: x.T, Base: mem.NullBase, Off: int64(synthAddr(x))}
		y = mem.Ptr{T: y.T, Base: mem.NullBase, Off: int64(synthAddr(y))}
	}
	var b bool
	switch op {
	case cast.BLt:
		b = x.Off < y.Off
	case cast.BGt:
		b = x.Off > y.Off
	case cast.BLe:
		b = x.Off <= y.Off
	case cast.BGe:
		b = x.Off >= y.Off
	}
	out := uint64(0)
	if b {
		out = 1
	}
	return mem.BoxInt(ctypes.TInt, out), nil
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
		return mem.Ptr{}, in.ubError(ub.Catalog[0], pos, "Comparing a pointer with a non-pointer")
	}
	x, err := toPtr(xv)
	if err != nil {
		return nil, err
	}
	y, err := toPtr(yv)
	if err != nil {
		return nil, err
	}
	if uerr := in.checkPtrUsable(x, pos); uerr != nil {
		return nil, uerr
	}
	if uerr := in.checkPtrUsable(y, pos); uerr != nil {
		return nil, uerr
	}
	eq := x.Base == y.Base && x.Off == y.Off
	if x.IsNull() && y.IsNull() {
		eq = true
	}
	b := eq
	if op == cast.BNe {
		b = !eq
	}
	out := uint64(0)
	if b {
		out = 1
	}
	return mem.BoxInt(ctypes.TInt, out), nil
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
		tmp := &cast.Binary{Op: e.Op, X: e.L, Y: e.R}
		tmp.P = e.P
		tmp.T = in.model.UsualArith(decayed(e.L.Type()), decayed(e.R.Type()))
		if _, isPtr := old.(mem.Ptr); isPtr {
			tmp.T = e.L.Type()
		}
		res, err := in.applyBinary(e.Op, old, urv, tmp, e.P)
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

// voidPtrType is the void* type used for null and forged comparisons —
// shared so pointer equality tests never allocate a type.
var voidPtrType = ctypes.PointerTo(ctypes.TVoid)

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
		if uerr := in.checkPtrUsable(p, e.Pos()); uerr != nil {
			return false, uerr
		}
	}
	b, ok := mem.IsTruthy(v)
	if !ok {
		return false, in.ubError(ub.Catalog[0], e.Pos(), "Condition has no truth value")
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
		o, uerr := in.object(lv, e.P, false)
		if uerr != nil {
			return nil, uerr
		}
		return mem.Int{T: e.T, Bits: uint64(o.Size)}, nil
	}
	return mem.Int{T: e.T, Bits: uint64(in.model.Size(t))}, nil
}
