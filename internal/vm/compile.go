package vm

// The compiler: one pass over a function's AST producing pre-resolved
// closure code. Compilation moves every decision that does not depend on
// runtime state out of the execution loop:
//
//   - node-kind dispatch (the tree walker's type switches) becomes a
//     direct call through a compiled closure;
//   - literal values, sizeof/alignof results, member offsets, and
//     bit-field geometry are computed once;
//   - each block's label table and declaration pre-pass list are built
//     here, replacing the tree walker's per-goto subtree scans;
//   - statically-known control shape (which of the four declaration
//     paths applies, whether a loop has a condition, whether an address
//     operand needs the &*p / &a[i] no-deref special case) selects the
//     closure variant at compile time.
//
// What compilation must NOT move: anything the fidelity oracle can see.
// Every closure calls the same interp helpers (Step, SeqPt, Order,
// Usable, ReadLV/WriteLV, ApplyBinary, UBErrorf, ...) in the same order
// the tree walker calls them, so budgets, scheduler Pick sequences,
// observer events, and UB verdicts are byte-identical by construction.
// The UB-check profile is read from the Interp at run time — compiled
// code is cached per program and shared across the whole tool matrix.

import (
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/ub"
)

// cexpr is compiled expression code.
type cexpr func(in *interp.Interp) (mem.Value, error)

// clval is compiled lvalue-position code (the tree walker's lvalOf).
type clval func(in *interp.Interp) (interp.LV, error)

// ccond is compiled controlling-expression code.
type ccond func(in *interp.Interp) (bool, error)

// cinit is one compiled step of an initialization plan.
type cinit func(in *interp.Interp, obj mem.ObjID) error

// cdecl is a compiled declarator execution.
type cdecl func(in *interp.Interp) error

var flowNone = interp.Ctrl{}

// cstmt is compiled statement code with its three entry points: normal
// execution, goto-resume (start at a contained label), and switch
// dispatch (start at a contained case). The ast node is retained for the
// label/case containment queries of the rare control-transfer paths.
type cstmt struct {
	ast cast.Stmt
	run func(in *interp.Interp) (interp.Ctrl, error)
	// res, when set, resumes execution at a contained label (nil for
	// statement kinds that cannot contain labels).
	res func(in *interp.Interp, label string) (interp.Ctrl, error)
	// frm, when set, starts execution at a contained case/default
	// statement. frmPre marks a compound, whose dispatch runs before the
	// identity check (mirroring the tree walker's execFrom).
	frm    func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error)
	frmPre bool
}

func (s *cstmt) resume(in *interp.Interp, label string) (interp.Ctrl, error) {
	if s.res != nil {
		return s.res(in, label)
	}
	return flowNone, in.UBErrorf(ub.Catalog[0], s.ast.Pos(), "Cannot resume at label %q", label)
}

// runFrom mirrors the tree walker's execFrom.
func (s *cstmt) runFrom(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
	if s.frmPre {
		return s.frm(in, target)
	}
	if s.ast == target {
		return s.run(in)
	}
	if s.frm != nil && interp.ContainsStmt(s.ast, target) {
		return s.frm(in, target)
	}
	return flowNone, nil
}

// compiler compiles one program; fn is the function being compiled.
type compiler struct {
	prog  *sema.Program
	model *ctypes.Model
	code  *Code
	fn    *cast.FuncDef
}

func (c *compiler) compileFunc(fd *cast.FuncDef) *cfunc {
	c.fn = fd
	return &cfunc{fd: fd, body: c.compileStmt(fd.Body)}
}

// ---------- expressions ----------

func (c *compiler) compileExpr(e cast.Expr) cexpr {
	pos := e.Pos()
	switch e := e.(type) {
	case *cast.IntLit:
		// Boxed once at compile time: evaluating a literal must not
		// allocate (values are immutable, so the box is shared safely).
		v := mem.BoxInt(e.T, c.model.Wrap(e.T, e.Value))
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			return v, nil
		}

	case *cast.FloatLit:
		var v mem.Value = mem.Float{T: e.T, F: e.Value}
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			return v, nil
		}

	case *cast.Ident:
		if e.Sym.Kind == cast.SymFunc {
			name := e.Sym.Name
			return func(in *interp.Interp) (mem.Value, error) {
				if err := in.Step(pos); err != nil {
					return nil, err
				}
				return in.FuncPtr(name, pos)
			}
		}
		sym, name, t := e.Sym, e.Name, e.Sym.Type
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			id, ok := in.LookupObj(sym)
			if !ok {
				return nil, in.UBErrorf(ub.OutsideLifetime, pos,
					"Referring to object %q outside of its lifetime", name)
			}
			return in.LoadOrDecay(interp.LV{Base: id, Off: 0, T: t}, pos)
		}

	case *cast.StringLit, *cast.CompoundLit, *cast.Index, *cast.Member:
		lv := c.compileLval(e)
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			l, err := lv(in)
			if err != nil {
				return nil, err
			}
			return in.LoadOrDecay(l, pos)
		}

	case *cast.Unary:
		return c.compileUnary(e)
	case *cast.Binary:
		return c.compileBinary(e)
	case *cast.Assign:
		return c.compileAssign(e)

	case *cast.Cond:
		cond := c.compileCond(e.C)
		then := c.compileExpr(e.Then)
		els := c.compileExpr(e.Else)
		isVoid := e.T.Kind == ctypes.Void
		t := e.T
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			b, err := cond(in)
			if err != nil {
				return nil, err
			}
			in.SeqPt() // sequence point after the condition
			branch := els
			if b {
				branch = then
			}
			v, err := branch(in)
			if err != nil {
				return nil, err
			}
			if isVoid {
				return mem.Void{}, nil
			}
			return in.Convert(v, t, pos)
		}

	case *cast.Comma:
		cx := c.compileExpr(e.X)
		cy := c.compileExpr(e.Y)
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			if _, err := cx(in); err != nil {
				return nil, err
			}
			in.SeqPt() // the comma operator is a sequence point
			return cy(in)
		}

	case *cast.Call:
		return c.compileCall(e)

	case *cast.Cast:
		cx := c.compileExpr(e.X)
		to := e.To
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			v, err := cx(in)
			if err != nil {
				return nil, err
			}
			return in.Convert(v, to, pos)
		}

	case *cast.SizeofExpr:
		t := e.X.Type()
		if t.VLA {
			// sizeof on a VLA evaluates the operand (C11 §6.5.3.4:2).
			lv := c.compileLval(e.X)
			rt := e.T
			return func(in *interp.Interp) (mem.Value, error) {
				if err := in.Step(pos); err != nil {
					return nil, err
				}
				l, err := lv(in)
				if err != nil {
					return nil, err
				}
				o, err := in.Object(l, pos, false)
				if err != nil {
					return nil, err
				}
				return mem.Int{T: rt, Bits: uint64(o.Size)}, nil
			}
		}
		v := mem.Int{T: e.T, Bits: uint64(c.model.Size(t))}
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			return v, nil
		}

	case *cast.SizeofType:
		var v mem.Int
		if e.IsAlign {
			v = mem.Int{T: e.T, Bits: uint64(c.model.Align(e.Of))}
		} else {
			v = mem.Int{T: e.T, Bits: uint64(c.model.Size(e.Of))}
		}
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			return v, nil
		}
	}
	return func(in *interp.Interp) (mem.Value, error) {
		if err := in.Step(pos); err != nil {
			return nil, err
		}
		return nil, in.UBErrorf(ub.Catalog[0], pos, "Unhandled expression %T", e)
	}
}

// compileLval mirrors lvalOf: no step is charged for the node itself
// (only the contained full expressions charge steps as they evaluate).
func (c *compiler) compileLval(e cast.Expr) clval {
	pos := e.Pos()
	switch e := e.(type) {
	case *cast.Ident:
		sym, name, t := e.Sym, e.Name, e.Sym.Type
		return func(in *interp.Interp) (interp.LV, error) {
			if id, ok := in.LookupObj(sym); ok {
				return interp.LV{Base: id, Off: 0, T: t}, nil
			}
			return interp.LV{}, in.UBErrorf(ub.OutsideLifetime, pos,
				"Referring to object %q outside of its lifetime", name)
		}

	case *cast.StringLit:
		lit, t := e, e.T
		return func(in *interp.Interp) (interp.LV, error) {
			id, err := in.StringLitObj(lit)
			if err != nil {
				return interp.LV{}, err
			}
			return interp.LV{Base: id, Off: 0, T: t}, nil
		}

	case *cast.CompoundLit:
		of := e.Of
		size := c.model.Size(of)
		plan := c.compilePlan(e.Plan)
		return func(in *interp.Interp) (interp.LV, error) {
			o, err := in.MemStore().Alloc(mem.ObjAuto, size, "compound literal", of)
			if err != nil {
				return interp.LV{}, err
			}
			in.TrackBlockObj(o.ID)
			o.Zero(0, o.Size)
			if err := runPlan(in, o.ID, plan, false); err != nil {
				return interp.LV{}, err
			}
			return interp.LV{Base: o.ID, Off: 0, T: of}, nil
		}

	case *cast.Unary:
		if e.Op != cast.UDeref {
			return func(in *interp.Interp) (interp.LV, error) {
				return interp.LV{}, in.UBErrorf(ub.Catalog[0], pos, "Expression is not an LV")
			}
		}
		cx := c.compileExpr(e.X)
		t := e.T
		return func(in *interp.Interp) (interp.LV, error) {
			v, err := cx(in)
			if err != nil {
				return interp.LV{}, err
			}
			return in.DerefLV(v, t, pos)
		}

	case *cast.Index:
		// a[i] ≡ *(a + i): pointer arithmetic, then an LV.
		add := c.compilePtrAdd(e.X, e.I, pos)
		t := e.T
		return func(in *interp.Interp) (interp.LV, error) {
			p, err := add(in)
			if err != nil {
				return interp.LV{}, err
			}
			return in.DerefLV(p, t, pos)
		}

	case *cast.Member:
		fld, t := e.Field, e.T
		if e.Arrow {
			cx := c.compileExpr(e.X)
			return func(in *interp.Interp) (interp.LV, error) {
				v, err := cx(in)
				if err != nil {
					return interp.LV{}, err
				}
				p, ok := v.(mem.Ptr)
				if !ok {
					return interp.LV{}, in.UBErrorf(ub.InvalidDeref, pos, "-> applied to a non-pointer value")
				}
				base, err := in.DerefLV(p, p.T.Elem, pos)
				if err != nil {
					return interp.LV{}, err
				}
				return interp.LV{Base: base.Base, Off: base.Off + fld.Offset, T: t,
					Bit: fld.BitField, BitOff: fld.BitOff, BitWidth: fld.BitWidth}, nil
			}
		}
		cx := c.compileLval(e.X)
		return func(in *interp.Interp) (interp.LV, error) {
			base, err := cx(in)
			if err != nil {
				return interp.LV{}, err
			}
			return interp.LV{Base: base.Base, Off: base.Off + fld.Offset, T: t,
				Bit: fld.BitField, BitOff: fld.BitOff, BitWidth: fld.BitWidth}, nil
		}
	}
	return func(in *interp.Interp) (interp.LV, error) {
		return interp.LV{}, in.UBErrorf(ub.Catalog[0], pos, "Expression %T is not an LV", e)
	}
}

// compileCond mirrors evalCondition.
func (c *compiler) compileCond(e cast.Expr) ccond {
	cx := c.compileExpr(e)
	pos := e.Pos()
	return func(in *interp.Interp) (bool, error) {
		v, err := cx(in)
		if err != nil {
			return false, err
		}
		v, err = in.Usable(v, pos)
		if err != nil {
			return false, err
		}
		if p, ok := v.(mem.Ptr); ok {
			if uerr := in.CheckPtrUsable(p, pos); uerr != nil {
				return false, uerr
			}
		}
		b, ok := mem.IsTruthy(v)
		if !ok {
			return false, in.UBErrorf(ub.Catalog[0], pos, "Condition has no truth value")
		}
		return b, nil
	}
}

// compilePtrAdd mirrors evalPtrAdd: x and i scheduler-ordered, then x+i.
func (c *compiler) compilePtrAdd(xe, ie cast.Expr, pos token.Pos) cexpr {
	cx := c.compileExpr(xe)
	ci := c.compileExpr(ie)
	return func(in *interp.Interp) (mem.Value, error) {
		var xv, iv mem.Value
		var err error
		first, _ := in.Order2()
		if first == 0 {
			if xv, err = cx(in); err == nil {
				in.OperandDone()
				iv, err = ci(in)
			}
		} else {
			if iv, err = ci(in); err == nil {
				in.OperandDone()
				xv, err = cx(in)
			}
		}
		if err != nil {
			return nil, err
		}
		in.OperandDone()
		if xv, err = in.Usable(xv, pos); err != nil {
			return nil, err
		}
		if iv, err = in.Usable(iv, pos); err != nil {
			return nil, err
		}
		return in.PtrAddSub(cast.BAdd, xv, iv, pos)
	}
}

func (c *compiler) compileUnary(e *cast.Unary) cexpr {
	pos := e.P
	switch e.Op {
	case cast.UAddr:
		return c.compileAddr(e)

	case cast.UDeref:
		lv := c.compileLval(e)
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			l, err := lv(in)
			if err != nil {
				return nil, err
			}
			return in.LoadOrDecay(l, pos)
		}

	case cast.UPlus, cast.UNeg, cast.UCompl:
		cx := c.compileExpr(e.X)
		op, t := e.Op, e.T
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			v, err := cx(in)
			if err != nil {
				return nil, err
			}
			if v, err = in.Usable(v, pos); err != nil {
				return nil, err
			}
			if v, err = in.Convert(v, t, pos); err != nil {
				return nil, err
			}
			switch val := v.(type) {
			case mem.Int:
				switch op {
				case cast.UPlus:
					return val, nil
				case cast.UNeg:
					// -INT_MIN overflows (C11 §6.5:5).
					m := in.Model()
					if in.Prof().Overflow && val.T.IsSigned(m) && int64(val.Bits) == m.IntMin(val.T) {
						return nil, in.UBErrorf(ub.SignedOverflow, pos,
							"Signed integer overflow negating the minimum value of %s", val.T)
					}
					return mem.MakeInt(m, val.T, -val.Bits), nil
				default:
					return mem.MakeInt(in.Model(), val.T, ^val.Bits), nil
				}
			case mem.Float:
				if op == cast.UNeg {
					return mem.Float{T: val.T, F: -val.F}, nil
				}
				return val, nil
			}
			return nil, in.UBErrorf(ub.Catalog[0], pos, "Bad operand to unary %v", op)
		}

	case cast.UNot:
		cond := c.compileCond(e.X)
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			b, err := cond(in)
			if err != nil {
				return nil, err
			}
			out := uint64(1)
			if b {
				out = 0
			}
			return mem.Int{T: ctypes.TInt, Bits: out}, nil
		}

	case cast.UPreInc, cast.UPreDec, cast.UPostInc, cast.UPostDec:
		lv := c.compileLval(e.X)
		dir := int64(1)
		if e.Op == cast.UPreDec || e.Op == cast.UPostDec {
			dir = -1
		}
		post := e.Op == cast.UPostInc || e.Op == cast.UPostDec
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			l, err := lv(in)
			if err != nil {
				return nil, err
			}
			old, err := in.ReadLV(l, pos)
			if err != nil {
				return nil, err
			}
			old, err = in.Usable(old, pos)
			if err != nil {
				return nil, err
			}
			var newV mem.Value
			switch v := old.(type) {
			case mem.Int:
				nv, uerr := in.IntArith(cast.BAdd, v, mem.Int{T: v.T, Bits: uint64(dir)}, v.T, pos)
				if uerr != nil {
					return nil, uerr
				}
				newV = nv
			case mem.Float:
				newV = mem.Float{T: v.T, F: v.F + float64(dir)}
			case mem.Ptr:
				nv, uerr := in.PtrAdd(v, dir, pos)
				if uerr != nil {
					return nil, uerr
				}
				newV = nv
			default:
				return nil, in.UBErrorf(ub.Catalog[0], pos, "Bad operand to ++/--")
			}
			if err := in.WriteLV(l, newV, pos); err != nil {
				return nil, err
			}
			if post {
				return old, nil
			}
			return newV, nil
		}
	}
	return func(in *interp.Interp) (mem.Value, error) {
		if err := in.Step(pos); err != nil {
			return nil, err
		}
		return nil, in.UBErrorf(ub.Catalog[0], pos, "Unhandled unary %v", e.Op)
	}
}

// compileAddr mirrors evalAddr: the &*p, &a[i], and &func no-deref
// special cases are resolved at compile time (C11 §6.5.3.2:3).
func (c *compiler) compileAddr(e *cast.Unary) cexpr {
	pos, t := e.P, e.T
	switch x := e.X.(type) {
	case *cast.Unary:
		if x.Op == cast.UDeref {
			cx := c.compileExpr(x.X)
			return func(in *interp.Interp) (mem.Value, error) {
				if err := in.Step(pos); err != nil {
					return nil, err
				}
				v, err := cx(in)
				if err != nil {
					return nil, err
				}
				p, ok := v.(mem.Ptr)
				if !ok {
					return nil, in.UBErrorf(ub.InvalidDeref, pos, "&* applied to a non-pointer")
				}
				p.T = t
				return p, nil
			}
		}
	case *cast.Index:
		add := c.compilePtrAdd(x.X, x.I, pos)
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			p, err := add(in)
			if err != nil {
				return nil, err
			}
			if pp, ok := p.(mem.Ptr); ok {
				pp.T = t
				return pp, nil
			}
			return p, nil
		}
	case *cast.Ident:
		if x.Sym.Kind == cast.SymFunc {
			name := x.Sym.Name
			return func(in *interp.Interp) (mem.Value, error) {
				if err := in.Step(pos); err != nil {
					return nil, err
				}
				return in.FuncPtr(name, pos)
			}
		}
	}
	lv := c.compileLval(e.X)
	return func(in *interp.Interp) (mem.Value, error) {
		if err := in.Step(pos); err != nil {
			return nil, err
		}
		l, err := lv(in)
		if err != nil {
			return nil, err
		}
		return mem.Ptr{T: t, Base: l.Base, Off: l.Off}, nil
	}
}

func (c *compiler) compileBinary(e *cast.Binary) cexpr {
	pos := e.P
	switch e.Op {
	case cast.BLogAnd, cast.BLogOr:
		// && and || are sequence points after the first operand.
		condX := c.compileCond(e.X)
		condY := c.compileCond(e.Y)
		isOr := e.Op == cast.BLogOr
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			b, err := condX(in)
			if err != nil {
				return nil, err
			}
			in.SeqPt()
			if isOr == b { // short circuit
				out := uint64(0)
				if isOr {
					out = 1
				}
				return mem.Int{T: ctypes.TInt, Bits: out}, nil
			}
			b2, err := condY(in)
			if err != nil {
				return nil, err
			}
			out := uint64(0)
			if b2 {
				out = 1
			}
			return mem.Int{T: ctypes.TInt, Bits: out}, nil
		}
	}

	// Other binary operators: operands are unsequenced — ask the scheduler.
	cx := c.compileExpr(e.X)
	cy := c.compileExpr(e.Y)
	op := e.Op
	return func(in *interp.Interp) (mem.Value, error) {
		if err := in.Step(pos); err != nil {
			return nil, err
		}
		var xv, yv mem.Value
		var err error
		first, _ := in.Order2()
		if first == 0 {
			if xv, err = cx(in); err == nil {
				in.OperandDone()
				yv, err = cy(in)
			}
		} else {
			if yv, err = cy(in); err == nil {
				in.OperandDone()
				xv, err = cx(in)
			}
		}
		if err != nil {
			return nil, err
		}
		in.OperandDone()
		if xv, err = in.Usable(xv, pos); err != nil {
			return nil, err
		}
		if yv, err = in.Usable(yv, pos); err != nil {
			return nil, err
		}
		return in.ApplyBinary(op, xv, yv, e, pos)
	}
}

func (c *compiler) compileAssign(e *cast.Assign) cexpr {
	pos := e.P
	lv := c.compileLval(e.L)
	cr := c.compileExpr(e.R)
	if !e.HasOp {
		return func(in *interp.Interp) (mem.Value, error) {
			if err := in.Step(pos); err != nil {
				return nil, err
			}
			var l interp.LV
			var rv mem.Value
			var err error
			first, _ := in.Order2()
			if first == 0 {
				if l, err = lv(in); err == nil {
					in.OperandDone()
					rv, err = cr(in)
				}
			} else {
				if rv, err = cr(in); err == nil {
					in.OperandDone()
					l, err = lv(in)
				}
			}
			if err != nil {
				return nil, err
			}
			in.OperandDone()
			cv, err := in.ConvertForStore(rv, l.T, pos)
			if err != nil {
				return nil, err
			}
			if err := in.WriteLV(l, cv, pos); err != nil {
				return nil, err
			}
			return cv, nil
		}
	}
	// Compound assignment: read-modify-write through applyBinary, with
	// the same per-execution synthetic operator node the tree walker
	// builds (compiled code is shared across concurrent interpreters, so
	// the node cannot be preallocated and mutated).
	op, lNode, rNode := e.Op, e.L, e.R
	return func(in *interp.Interp) (mem.Value, error) {
		if err := in.Step(pos); err != nil {
			return nil, err
		}
		var l interp.LV
		var rv mem.Value
		var err error
		first, _ := in.Order2()
		if first == 0 {
			if l, err = lv(in); err == nil {
				in.OperandDone()
				rv, err = cr(in)
			}
		} else {
			if rv, err = cr(in); err == nil {
				in.OperandDone()
				l, err = lv(in)
			}
		}
		if err != nil {
			return nil, err
		}
		in.OperandDone()
		old, err := in.ReadLV(l, pos)
		if err != nil {
			return nil, err
		}
		if old, err = in.Usable(old, pos); err != nil {
			return nil, err
		}
		urv, err := in.Usable(rv, pos)
		if err != nil {
			return nil, err
		}
		tmp := &cast.Binary{Op: op, X: lNode, Y: rNode}
		tmp.P = pos
		tmp.T = in.Model().UsualArith(decayed(lNode.Type()), decayed(rNode.Type()))
		if _, isPtr := old.(mem.Ptr); isPtr {
			tmp.T = lNode.Type()
		}
		res, err := in.ApplyBinary(op, old, urv, tmp, pos)
		if err != nil {
			return nil, err
		}
		cv, err := in.ConvertForStore(res, l.T, pos)
		if err != nil {
			return nil, err
		}
		if err := in.WriteLV(l, cv, pos); err != nil {
			return nil, err
		}
		return cv, nil
	}
}

// decayed mirrors the interpreter's LV-conversion on types.
func decayed(t *ctypes.Type) *ctypes.Type {
	switch t.Kind {
	case ctypes.Array, ctypes.Func:
		return t.Decay()
	}
	return t
}

func (c *compiler) compileCall(e *cast.Call) cexpr {
	pos := e.P
	cfn := c.compileExpr(e.Fn)
	cargs := make([]cexpr, len(e.Args))
	for i, a := range e.Args {
		cargs[i] = c.compileExpr(a)
	}
	n := len(e.Args) + 1
	code := c.code
	return func(in *interp.Interp) (mem.Value, error) {
		if err := in.Step(pos); err != nil {
			return nil, err
		}
		vals := make([]mem.Value, n)
		var err error
		switch n {
		case 1:
			in.Order1()
			vals[0], err = cfn(in)
			if err != nil {
				return nil, err
			}
		case 2:
			first, _ := in.Order2()
			if first == 0 {
				if vals[0], err = cfn(in); err == nil {
					in.OperandDone()
					vals[1], err = cargs[0](in)
				}
			} else {
				if vals[1], err = cargs[0](in); err == nil {
					in.OperandDone()
					vals[0], err = cfn(in)
				}
			}
			if err != nil {
				return nil, err
			}
			in.OperandDone()
		default:
			var buf [8]int // the order for up to 8 operands, on the stack
			for _, which := range in.Order(buf[:0], n) {
				if which == 0 {
					vals[0], err = cfn(in)
				} else {
					vals[which], err = cargs[which-1](in)
				}
				if err != nil {
					return nil, err
				}
				in.OperandDone()
			}
		}
		return in.FinishCall(e, vals, func(fd *cast.FuncDef, args []mem.Value, p token.Pos) (mem.Value, error) {
			return code.call(in, fd, args, p)
		})
	}
}

// ---------- initialization plans ----------

func (c *compiler) compilePlan(plan []cast.InitAssign) []cinit {
	if len(plan) == 0 {
		return nil
	}
	out := make([]cinit, len(plan))
	for i, as := range plan {
		out[i] = c.compileInitAssign(as)
	}
	return out
}

func (c *compiler) compileInitAssign(as cast.InitAssign) cinit {
	// String literal into char array: a byte copy, no evaluation.
	if lit, isStr := as.Expr.(*cast.StringLit); isStr && as.Type.Kind == ctypes.Array {
		n, off, val := as.Type.ArrayLen, as.Offset, lit.Value
		return func(in *interp.Interp, obj mem.ObjID) error {
			o, ok := in.MemStore().Obj(obj)
			if !ok {
				return fmt.Errorf("initializer for unknown object")
			}
			for i := int64(0); i < n && off+i < o.Size; i++ {
				var b byte
				if i < int64(len(val)) {
					b = val[i]
				}
				o.Data[off+i] = mem.Concrete{B: b}
			}
			return nil
		}
	}
	ce := c.compileExpr(as.Expr)
	pos := as.Expr.Pos()
	off, t := as.Offset, as.Type
	return func(in *interp.Interp, obj mem.ObjID) error {
		o, ok := in.MemStore().Obj(obj)
		if !ok {
			return fmt.Errorf("initializer for unknown object")
		}
		v, err := ce(in)
		if err != nil {
			return err
		}
		v, err = in.Convert(v, t, pos)
		if err != nil {
			return err
		}
		in.StoreRaw(o, off, t, v)
		return nil
	}
}

// runPlan mirrors runInitPlan.
func runPlan(in *interp.Interp, obj mem.ObjID, plan []cinit, zeroFirst bool) error {
	if zeroFirst {
		if o, ok := in.MemStore().Obj(obj); ok {
			o.Zero(0, o.Size)
		}
	}
	for _, p := range plan {
		if err := p(in, obj); err != nil {
			return err
		}
	}
	return nil
}

// ---------- declarations ----------

// compileDecl selects the declaration path (static / extern / VLA /
// ordinary automatic) at compile time; the tree walker re-decides on
// every execution.
func (c *compiler) compileDecl(d *cast.Decl) cdecl {
	if d.Sym == nil || d.Sym.Kind != cast.SymObject {
		return func(in *interp.Interp) error { return nil }
	}
	switch {
	case d.Storage == cast.SStatic:
		plan := c.compilePlan(d.Plan)
		size := c.model.Size(d.Type)
		sym, name, t := d.Sym, d.Name, d.Type
		return func(in *interp.Interp) error {
			id, done := in.StaticObj(d)
			if !done {
				o, err := in.MemStore().Alloc(mem.ObjStatic, size, name, t)
				if err != nil {
					return err
				}
				o.Zero(0, size)
				in.SetStaticObj(d, o.ID)
				id = o.ID
				in.MarkQualRanges(id, 0, t)
				if len(plan) > 0 {
					if err := runPlan(in, id, plan, false); err != nil {
						return err
					}
				}
			}
			in.SetLocal(sym, id)
			return nil
		}

	case d.Storage == cast.SExtern:
		return func(in *interp.Interp) error { return nil }

	case d.Type.VLA:
		var csize cexpr
		if d.VLASize != nil {
			csize = c.compileExpr(d.VLASize)
		}
		esize := c.model.Size(d.Type.Elem)
		pos, sym, name, t := d.P, d.Sym, d.Name, d.Type
		return func(in *interp.Interp) error {
			var n int64 = -1
			if csize != nil {
				v, err := csize(in)
				if err != nil {
					return err
				}
				v, err = in.Usable(v, pos)
				if err != nil {
					return err
				}
				iv, ok := v.(mem.Int)
				if !ok {
					return in.UBErrorf(ub.VLANotPositive, pos, "VLA size is not an integer")
				}
				n = int64(iv.Bits)
			}
			// C11 §6.7.6.2:5: the size shall be greater than zero.
			if n <= 0 {
				if in.Prof().VLASize {
					return in.UBErrorf(ub.VLANotPositive, pos,
						"Variable length array %q declared with non-positive size %d", name, n)
				}
				n = 0 // fallback: a zero-sized slab of stack
			} else if in.Prof().VLASize {
				in.CheckPass(ub.VLANotPositive, pos)
			}
			o, err := in.MemStore().Alloc(mem.ObjAuto, n*esize, name, t)
			if err != nil {
				return err
			}
			in.SetLocal(sym, o.ID)
			in.TrackBlockObj(o.ID)
			return nil
		}
	}

	// Ordinary automatic object: allocated at block entry; run the
	// initializer now.
	plan := c.compilePlan(d.Plan)
	hasInit := d.Init != nil
	zeroFill := d.ZeroFill
	sym := d.Sym
	return func(in *interp.Interp) error {
		id, ok := in.LocalObj(sym)
		if !ok {
			if err := in.AllocLocal(d); err != nil {
				return err
			}
			id, _ = in.LocalObj(sym)
		}
		if !hasInit {
			return nil // stays indeterminate (§4.3.3)
		}
		return runPlan(in, id, plan, zeroFill)
	}
}
