package sema

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/ub"
)

// decayed applies the lvalue conversions that turn array and function types
// into pointers in value contexts (C11 §6.3.2.1).
func decayed(t *ctypes.Type) *ctypes.Type {
	switch t.Kind {
	case ctypes.Array:
		return ctypes.PointerTo(t.Elem)
	case ctypes.Func:
		return ctypes.PointerTo(t)
	}
	return t
}

// value returns the type e has when used as a value.
func value(e cast.Expr) *ctypes.Type { return decayed(e.Type()) }

// isNullConstant reports whether e is a null pointer constant (integer
// constant 0, possibly cast to void*).
func isNullConstant(e cast.Expr) bool {
	switch e := e.(type) {
	case *cast.IntLit:
		return e.Value == 0
	case *cast.Cast:
		if e.To.IsVoidPtr() || e.To.IsInteger() {
			return isNullConstant(e.X)
		}
	}
	return false
}

// expr checks e, annotates its type and lvalue-ness, and returns its type.
func (c *checker) expr(e cast.Expr) (*ctypes.Type, error) {
	t, err := c.exprInner(e)
	if err != nil {
		return nil, err
	}
	return t, nil
}

func (c *checker) exprInner(e cast.Expr) (*ctypes.Type, error) {
	switch e := e.(type) {
	case *cast.IntLit:
		return e.T, nil
	case *cast.FloatLit:
		return e.T, nil
	case *cast.StringLit:
		n := int64(len(e.Value) + 1)
		elem := ctypes.TChar
		if e.Wide {
			elem = ctypes.TInt // wchar_t == int in our models
		}
		e.T = ctypes.ArrayOf(elem, n)
		e.Lvalue = true
		return e.T, nil

	case *cast.Ident:
		sym, ok := c.scopes.Lookup(e.Name)
		if !ok {
			return nil, c.errorf(e.P, "use of undeclared identifier %q", e.Name)
		}
		sym = c.own(sym)
		sym.Referenced = true
		e.Sym = sym
		e.T = sym.Type
		e.Lvalue = sym.Kind == cast.SymObject
		return e.T, nil

	case *cast.Unary:
		return c.unary(e)

	case *cast.Binary:
		return c.binary(e)

	case *cast.Assign:
		return c.assign(e)

	case *cast.Cond:
		return c.cond(e)

	case *cast.Comma:
		if _, err := c.expr(e.X); err != nil {
			return nil, err
		}
		if _, err := c.expr(e.Y); err != nil {
			return nil, err
		}
		e.T = value(e.Y)
		return e.T, nil

	case *cast.Call:
		return c.call(e)

	case *cast.Index:
		if _, err := c.expr(e.X); err != nil {
			return nil, err
		}
		if _, err := c.expr(e.I); err != nil {
			return nil, err
		}
		xt, it := value(e.X), value(e.I)
		// a[i] and i[a] are both valid.
		if xt.Kind != ctypes.Ptr && it.Kind == ctypes.Ptr {
			xt, it = it, xt
		}
		if xt.Kind != ctypes.Ptr {
			return nil, c.errorf(e.P, "subscripted value is not an array or pointer (%s)", xt)
		}
		if !it.IsInteger() {
			return nil, c.errorf(e.P, "array subscript is not an integer (%s)", it)
		}
		if !xt.Elem.IsComplete() && xt.Elem.Kind != ctypes.Void {
			return nil, c.errorf(e.P, "subscript of pointer to incomplete type %s", xt.Elem)
		}
		e.T = xt.Elem
		e.Lvalue = true
		return e.T, nil

	case *cast.Member:
		return c.member(e)

	case *cast.Cast:
		if _, err := c.expr(e.X); err != nil {
			return nil, err
		}
		from := value(e.X)
		to := e.To
		if to.Kind == ctypes.Void {
			e.T = to
			return e.T, nil
		}
		if from.Kind == ctypes.Void {
			// C11 §6.3.2.2: the (nonexistent) value of a void expression
			// shall not be used; converting it to anything but void is
			// statically undefined (paper §5.2.1 example).
			c.staticUB(ub.VoidValueUsed, e.P, "Conversion applied to a void expression")
			e.T = to
			return e.T, nil
		}
		if !to.IsScalar() {
			return nil, c.errorf(e.P, "cast to non-scalar type %s", to)
		}
		if !from.IsScalar() {
			return nil, c.errorf(e.P, "cast of non-scalar type %s", from)
		}
		if to.Kind == ctypes.Ptr && from.IsFloat() || from.Kind == ctypes.Ptr && to.IsFloat() {
			return nil, c.errorf(e.P, "cast between pointer and floating type")
		}
		e.T = to.Unqualified()
		return e.T, nil

	case *cast.SizeofExpr:
		if _, err := c.expr(e.X); err != nil {
			return nil, err
		}
		xt := e.X.Type()
		if xt.Kind == ctypes.Func {
			return nil, c.errorf(e.P, "sizeof applied to function type")
		}
		if !xt.IsComplete() && !xt.VLA {
			return nil, c.errorf(e.P, "sizeof applied to incomplete type %s", xt)
		}
		if !xt.VLA {
			if err := c.sized(xt, e.P, "sizeof"); err != nil {
				return nil, err
			}
		}
		e.T = ctypes.TULong // size_t
		return e.T, nil

	case *cast.SizeofType:
		if e.Of.Kind == ctypes.Func {
			return nil, c.errorf(e.P, "sizeof applied to function type")
		}
		if !e.Of.IsComplete() {
			return nil, c.errorf(e.P, "sizeof applied to incomplete type %s", e.Of)
		}
		if err := c.sized(e.Of, e.P, "sizeof"); err != nil {
			return nil, err
		}
		e.T = ctypes.TULong
		return e.T, nil

	case *cast.CompoundLit:
		if !e.Of.IsComplete() && !(e.Of.Kind == ctypes.Array && e.Of.ArrayLen < 0) {
			return nil, c.errorf(e.P, "compound literal of incomplete type %s", e.Of)
		}
		if e.Of.IsComplete() {
			if err := c.sized(e.Of, e.P, "compound literal"); err != nil {
				return nil, err
			}
		}
		ty, plan, err := c.buildInitPlan(e.Of, e.Init, e.P)
		if err != nil {
			return nil, err
		}
		e.Of = ty
		e.Plan = plan
		e.T = ty
		e.Lvalue = true
		return e.T, nil

	case *cast.InitList:
		return nil, c.errorf(e.P, "braced initializer used outside of initialization")
	}
	return nil, c.errorf(e.Pos(), "unhandled expression %T", e)
}

func (c *checker) unary(e *cast.Unary) (*ctypes.Type, error) {
	if _, err := c.expr(e.X); err != nil {
		return nil, err
	}
	xt := e.X.Type()
	switch e.Op {
	case cast.UAddr:
		if !isLvalue(e.X) && xt.Kind != ctypes.Func {
			return nil, c.errorf(e.P, "cannot take the address of an rvalue")
		}
		e.T = ctypes.PointerTo(xt)
		return e.T, nil
	case cast.UDeref:
		vt := value(e.X)
		if vt.Kind != ctypes.Ptr {
			return nil, c.errorf(e.P, "indirection requires pointer operand (%s)", vt)
		}
		e.T = vt.Elem
		e.Lvalue = e.T.Kind != ctypes.Func
		return e.T, nil
	case cast.UPlus, cast.UNeg:
		vt := value(e.X)
		if !vt.IsArithmetic() {
			return nil, c.errorf(e.P, "unary %v requires an arithmetic operand (%s)", e.Op, vt)
		}
		e.T = c.model.Promote(vt)
		return e.T, nil
	case cast.UCompl:
		vt := value(e.X)
		if !vt.IsInteger() {
			return nil, c.errorf(e.P, "~ requires an integer operand (%s)", vt)
		}
		e.T = c.model.Promote(vt)
		return e.T, nil
	case cast.UNot:
		vt := value(e.X)
		if !vt.IsScalar() {
			return nil, c.errorf(e.P, "! requires a scalar operand (%s)", vt)
		}
		e.T = ctypes.TInt
		return e.T, nil
	case cast.UPreInc, cast.UPreDec, cast.UPostInc, cast.UPostDec:
		if err := c.requireModifiableLvalue(e.X, e.P); err != nil {
			return nil, err
		}
		vt := value(e.X)
		if !vt.IsScalar() {
			return nil, c.errorf(e.P, "++/-- requires a scalar operand (%s)", vt)
		}
		e.T = xt.Unqualified()
		return e.T, nil
	}
	return nil, c.errorf(e.P, "unhandled unary operator %v", e.Op)
}

func isLvalue(e cast.Expr) bool {
	switch e := e.(type) {
	case *cast.Ident:
		return e.Lvalue
	case *cast.Unary:
		return e.Lvalue
	case *cast.Index:
		return e.Lvalue
	case *cast.Member:
		return e.Lvalue
	case *cast.StringLit:
		return true
	case *cast.CompoundLit:
		return true
	}
	return false
}

// requireModifiableLvalue checks assignability of e (C11 §6.3.2.1:1).
func (c *checker) requireModifiableLvalue(e cast.Expr, pos interface{ String() string }) error {
	if _, err := c.expr(e); err != nil {
		return err
	}
	if !isLvalue(e) {
		return c.errorf(e.Pos(), "expression is not assignable (not an lvalue)")
	}
	t := e.Type()
	if t.Kind == ctypes.Array {
		return c.errorf(e.Pos(), "array type %s is not assignable", t)
	}
	if t.Qual.Has(ctypes.QConst) {
		return c.errorf(e.Pos(), "cannot assign to const-qualified type %s", t)
	}
	if (t.Kind == ctypes.Struct || t.Kind == ctypes.Union) && hasConstMember(t) {
		return c.errorf(e.Pos(), "cannot assign to %s with const-qualified member", t)
	}
	if !t.IsComplete() {
		return c.errorf(e.Pos(), "cannot assign to incomplete type %s", t)
	}
	return nil
}

func hasConstMember(t *ctypes.Type) bool {
	for _, f := range t.Fields {
		if f.Type.Qual.Has(ctypes.QConst) {
			return true
		}
		if f.Type.Kind == ctypes.Struct || f.Type.Kind == ctypes.Union {
			if hasConstMember(f.Type) {
				return true
			}
		}
	}
	return false
}

func (c *checker) binary(e *cast.Binary) (*ctypes.Type, error) {
	if _, err := c.expr(e.X); err != nil {
		return nil, err
	}
	if _, err := c.expr(e.Y); err != nil {
		return nil, err
	}
	xt, yt := value(e.X), value(e.Y)
	m := c.model
	switch e.Op {
	case cast.BMul, cast.BDiv:
		if !xt.IsArithmetic() || !yt.IsArithmetic() {
			return nil, c.errorf(e.P, "invalid operands to %v (%s and %s)", e.Op, xt, yt)
		}
		e.T = m.UsualArith(xt, yt)
		return e.T, nil
	case cast.BRem, cast.BAnd, cast.BXor, cast.BOr:
		if !xt.IsInteger() || !yt.IsInteger() {
			return nil, c.errorf(e.P, "invalid operands to %v (%s and %s)", e.Op, xt, yt)
		}
		e.T = m.UsualArith(xt, yt)
		return e.T, nil
	case cast.BShl, cast.BShr:
		if !xt.IsInteger() || !yt.IsInteger() {
			return nil, c.errorf(e.P, "invalid operands to %v (%s and %s)", e.Op, xt, yt)
		}
		e.T = m.Promote(xt)
		return e.T, nil
	case cast.BAdd:
		switch {
		case xt.IsArithmetic() && yt.IsArithmetic():
			e.T = m.UsualArith(xt, yt)
		case xt.Kind == ctypes.Ptr && yt.IsInteger():
			e.T = xt
		case xt.IsInteger() && yt.Kind == ctypes.Ptr:
			e.T = yt
		default:
			return nil, c.errorf(e.P, "invalid operands to + (%s and %s)", xt, yt)
		}
		return e.T, nil
	case cast.BSub:
		switch {
		case xt.IsArithmetic() && yt.IsArithmetic():
			e.T = m.UsualArith(xt, yt)
		case xt.Kind == ctypes.Ptr && yt.IsInteger():
			e.T = xt
		case xt.Kind == ctypes.Ptr && yt.Kind == ctypes.Ptr:
			if !ctypes.Compatible(xt.Elem.Unqualified(), yt.Elem.Unqualified()) {
				return nil, c.errorf(e.P, "subtraction of incompatible pointer types (%s and %s)", xt, yt)
			}
			e.T = ctypes.TLong // ptrdiff_t
		default:
			return nil, c.errorf(e.P, "invalid operands to - (%s and %s)", xt, yt)
		}
		return e.T, nil
	case cast.BLt, cast.BGt, cast.BLe, cast.BGe:
		if xt.IsArithmetic() && yt.IsArithmetic() ||
			xt.Kind == ctypes.Ptr && yt.Kind == ctypes.Ptr {
			e.T = ctypes.TInt
			return e.T, nil
		}
		return nil, c.errorf(e.P, "invalid operands to %v (%s and %s)", e.Op, xt, yt)
	case cast.BEq, cast.BNe:
		switch {
		case xt.IsArithmetic() && yt.IsArithmetic():
		case xt.Kind == ctypes.Ptr && yt.Kind == ctypes.Ptr:
		case xt.Kind == ctypes.Ptr && isNullConstant(e.Y):
		case yt.Kind == ctypes.Ptr && isNullConstant(e.X):
		default:
			return nil, c.errorf(e.P, "invalid operands to %v (%s and %s)", e.Op, xt, yt)
		}
		e.T = ctypes.TInt
		return e.T, nil
	case cast.BLogAnd, cast.BLogOr:
		if !xt.IsScalar() || !yt.IsScalar() {
			return nil, c.errorf(e.P, "invalid operands to %v (%s and %s)", e.Op, xt, yt)
		}
		e.T = ctypes.TInt
		return e.T, nil
	}
	return nil, c.errorf(e.P, "unhandled binary operator %v", e.Op)
}

func (c *checker) assign(e *cast.Assign) (*ctypes.Type, error) {
	if err := c.requireModifiableLvalue(e.L, e.P); err != nil {
		return nil, err
	}
	if _, err := c.expr(e.R); err != nil {
		return nil, err
	}
	lt := e.L.Type()
	if e.HasOp {
		// Compound assignment: check the implied binary operation.
		tmp := &cast.Binary{Op: e.Op, X: e.L, Y: e.R}
		tmp.P = e.P
		if _, err := c.binary(tmp); err != nil {
			return nil, err
		}
	} else if err := c.checkAssignable(lt, e.R, e.P); err != nil {
		return nil, err
	}
	e.T = lt.Unqualified()
	return e.T, nil
}

// checkAssignable verifies that r may initialize/assign an lvalue of type lt
// (C11 §6.5.16.1). It is deliberately permissive about pointer mismatches
// that real compilers accept with a warning.
func (c *checker) checkAssignable(lt *ctypes.Type, r cast.Expr, pos interface{ String() string }) error {
	rt := value(r)
	l := lt.Unqualified()
	switch {
	case l.IsArithmetic() && rt.IsArithmetic():
		return nil
	case l.Kind == ctypes.Ptr && isNullConstant(r):
		return nil
	case l.Kind == ctypes.Ptr && rt.Kind == ctypes.Ptr:
		// Exact/compatible, or one side void*.
		if l.IsVoidPtr() || rt.IsVoidPtr() || ctypes.Compatible(l.Elem.Unqualified(), rt.Elem.Unqualified()) {
			return nil
		}
		// Incompatible pointers: accepted with a warning by real
		// compilers; we accept silently (the dynamic checker still sees
		// the real pointee types).
		return nil
	case l.Kind == ctypes.Ptr && rt.IsInteger():
		return nil // int→ptr: accepted (dynamic checker flags bad uses)
	case l.IsInteger() && rt.Kind == ctypes.Ptr:
		return nil
	case (l.Kind == ctypes.Struct || l.Kind == ctypes.Union) && ctypes.Compatible(l, rt):
		return nil
	case l.Kind == ctypes.Bool && rt.IsScalar():
		return nil
	}
	return c.errorf(r.Pos(), "incompatible types in assignment (%s from %s)", lt, rt)
}

func (c *checker) cond(e *cast.Cond) (*ctypes.Type, error) {
	if _, err := c.expr(e.C); err != nil {
		return nil, err
	}
	if !value(e.C).IsScalar() {
		return nil, c.errorf(e.P, "condition of ?: is not scalar")
	}
	if _, err := c.expr(e.Then); err != nil {
		return nil, err
	}
	if _, err := c.expr(e.Else); err != nil {
		return nil, err
	}
	tt, et := value(e.Then), value(e.Else)
	switch {
	case tt.IsArithmetic() && et.IsArithmetic():
		e.T = c.model.UsualArith(tt, et)
	case tt.Kind == ctypes.Void && et.Kind == ctypes.Void:
		e.T = ctypes.TVoid
	case tt.Kind == ctypes.Ptr && isNullConstant(e.Else):
		e.T = tt
	case et.Kind == ctypes.Ptr && isNullConstant(e.Then):
		e.T = et
	case tt.Kind == ctypes.Ptr && et.Kind == ctypes.Ptr:
		if tt.IsVoidPtr() {
			e.T = tt
		} else {
			e.T = tt // compatible or unified-by-fiat
		}
	case ctypes.Compatible(tt, et):
		e.T = tt
	default:
		return nil, c.errorf(e.P, "incompatible operand types in ?: (%s and %s)", tt, et)
	}
	return e.T, nil
}

func (c *checker) call(e *cast.Call) (*ctypes.Type, error) {
	if _, err := c.expr(e.Fn); err != nil {
		return nil, err
	}
	ft := e.Fn.Type()
	if ft.Kind == ctypes.Ptr {
		ft = ft.Elem
	}
	if ft.Kind != ctypes.Func {
		return nil, c.errorf(e.P, "called object is not a function (%s)", e.Fn.Type())
	}
	for _, a := range e.Args {
		if _, err := c.expr(a); err != nil {
			return nil, err
		}
	}
	if !ft.OldStyle {
		if len(e.Args) < len(ft.Params) || (len(e.Args) > len(ft.Params) && !ft.Variadic) {
			return nil, c.errorf(e.P, "call with %d arguments to function expecting %d", len(e.Args), len(ft.Params))
		}
		for i, p := range ft.Params {
			if err := c.checkAssignable(p.Type, e.Args[i], e.P); err != nil {
				return nil, err
			}
		}
	}
	e.T = ft.Elem
	return e.T, nil
}

func (c *checker) member(e *cast.Member) (*ctypes.Type, error) {
	if _, err := c.expr(e.X); err != nil {
		return nil, err
	}
	xt := e.X.Type()
	if e.Arrow {
		vt := value(e.X)
		if vt.Kind != ctypes.Ptr {
			return nil, c.errorf(e.P, "-> on non-pointer type %s", xt)
		}
		xt = vt.Elem
		e.Lvalue = true
	} else {
		e.Lvalue = isLvalue(e.X)
	}
	if xt.Kind != ctypes.Struct && xt.Kind != ctypes.Union {
		return nil, c.errorf(e.P, "member access on non-struct type %s", xt)
	}
	if xt.Incomplete {
		return nil, c.errorf(e.P, "member access on incomplete type %s", xt)
	}
	f, ok, err := c.model.FieldByNameOf(xt, e.Name)
	if err != nil {
		return nil, c.errorf(e.P, "member access on %s: %v", xt, err)
	}
	if !ok {
		return nil, c.errorf(e.P, "no member named %q in %s", e.Name, xt)
	}
	e.Field = f
	// Member type inherits the aggregate's qualifiers.
	e.T = f.Type.Qualified(xt.Qual)
	return e.T, nil
}
