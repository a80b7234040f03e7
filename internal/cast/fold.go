package cast

import (
	"fmt"

	"repro/internal/ctypes"
)

// FoldInt evaluates e as an integer constant expression (C11 §6.6:6)
// under m, computing through ctypes' constant arithmetic. It works on the
// parser's untyped trees (array sizes, enumerators, bit-field widths,
// _Static_assert, _Alignas) and on sema's typed ones (case labels, array
// designators, variable array sizes): the only types it reads are the
// literals' and, for sizeof, the operand's, which an untyped tree has
// only for literals. An error means e is not an integer constant
// expression, an undefined evaluation included.
func FoldInt(m *ctypes.Model, e Expr) (ctypes.Const, error) {
	f := folder{m: m}
	return f.fold(e)
}

type folder struct {
	m *ctypes.Model
	// skip is above zero inside an operand C does not evaluate (the
	// right of a decided && or ||, the arm ?: does not choose): its
	// undefined evaluations do not count (§6.6:3), its operands do.
	skip int
}

func (f *folder) fold(e Expr) (ctypes.Const, error) {
	switch e := e.(type) {
	case *IntLit:
		t := e.T
		if t == nil {
			t = ctypes.TInt
		}
		return ctypes.Const{T: t, V: e.Value}, nil
	case *Unary:
		if e.Op != UPlus && e.Op != UNeg && e.Op != UCompl && e.Op != UNot {
			break
		}
		x, err := f.fold(e.X)
		if err != nil {
			return x, err
		}
		v, err := f.m.ConstUnary(e.Op.Arith(), x)
		return f.eval(e, v, err)
	case *Binary:
		x, err := f.fold(e.X)
		if err != nil {
			return x, err
		}
		decided := e.Op == BLogAnd && x.V == 0 || e.Op == BLogOr && x.V != 0
		y, err := f.operand(e.Y, decided)
		if err != nil {
			return y, err
		}
		v, err := f.m.ConstBinary(e.Op.Arith(), x, y)
		return f.eval(e, v, err)
	case *Cond:
		c, err := f.fold(e.C)
		if err != nil {
			return c, err
		}
		x, err := f.operand(e.Then, c.V == 0)
		if err != nil {
			return x, err
		}
		y, err := f.operand(e.Else, c.V != 0)
		if err != nil {
			return y, err
		}
		return f.m.ConstCond(c, x, y), nil
	case *Cast:
		if !e.To.IsInteger() {
			return ctypes.Const{}, fmt.Errorf("%s: non-integer cast in constant expression", e.Pos())
		}
		// A floating constant may be the immediate operand of a cast.
		if fl, ok := e.X.(*FloatLit); ok {
			return f.m.ConstConvert(ctypes.Const{T: ctypes.TLongLong, V: uint64(int64(fl.Value))}, e.To), nil
		}
		x, err := f.fold(e.X)
		if err != nil {
			return x, err
		}
		return f.m.ConstConvert(x, e.To), nil
	case *SizeofType:
		return f.size(e, e.Of, e.IsAlign)
	case *SizeofExpr:
		t := e.X.Type()
		if s, ok := e.X.(*StringLit); ok && t == nil {
			elem := ctypes.TChar
			if s.Wide {
				elem = ctypes.TInt // wchar_t, as sema types the literal
			}
			t = ctypes.ArrayOf(elem, int64(len(s.Value)+1))
		}
		if t == nil {
			return ctypes.Const{}, fmt.Errorf("%s: sizeof of non-literal expression is not constant here", e.Pos())
		}
		if t.VLA {
			return ctypes.Const{}, fmt.Errorf("%s: sizeof of a variable length array is not constant", e.Pos())
		}
		return f.size(e, t, false)
	case *Ident:
		return ctypes.Const{}, fmt.Errorf("%s: %q is not a constant", e.Pos(), e.Name)
	case *Comma:
		return ctypes.Const{}, fmt.Errorf("%s: comma operator not allowed in constant expression", e.Pos())
	}
	return ctypes.Const{}, fmt.Errorf("%s: not a constant expression", e.Pos())
}

// operand folds an operand that C evaluates only if !skipped.
func (f *folder) operand(e Expr, skipped bool) (ctypes.Const, error) {
	if !skipped {
		return f.fold(e)
	}
	f.skip++
	v, err := f.fold(e)
	f.skip--
	return v, err
}

// eval passes an operator's result on, with its undefined evaluation as
// the expression's error unless C does not evaluate it.
func (f *folder) eval(e Expr, v ctypes.Const, err error) (ctypes.Const, error) {
	if err != nil && f.skip == 0 {
		return v, fmt.Errorf("%s: %v in constant expression", e.Pos(), err)
	}
	return v, nil
}

// size is sizeof (or _Alignof) t, of type size_t.
func (f *folder) size(e Expr, t *ctypes.Type, align bool) (ctypes.Const, error) {
	if !align && !t.IsComplete() {
		return ctypes.Const{}, fmt.Errorf("%s: sizeof incomplete type %s", e.Pos(), t)
	}
	var n int64
	var err error
	if align {
		n, err = f.m.AlignOf(t)
	} else {
		n, err = f.m.SizeOf(t)
	}
	if err != nil {
		return ctypes.Const{}, fmt.Errorf("%s: %v", e.Pos(), err)
	}
	return ctypes.Const{T: ctypes.TULong, V: uint64(n)}, nil
}
