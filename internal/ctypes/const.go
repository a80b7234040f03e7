package ctypes

import (
	"cmp"
	"errors"
	"fmt"
	"math"
)

// Const is the value of an integer constant expression under a Model:
// its integer type and the canonical 64-bit representation of its value
// in that type (see Wrap). The integer constant expressions of the
// language (C11 §6.6:6) and those of #if (§6.10.1:4, in intmax_t and
// uintmax_t) compute through the operations below, so the implementation's
// types decide their values the same way everywhere (§2.5.1 of the paper).
//
// An evaluation C leaves undefined — division by zero, a shift count
// outside the promoted width, signed overflow — returns an error: such an
// expression is not an integer constant expression. The result still
// carries its type, for operands C does not evaluate (§6.6:3).
type Const struct {
	T *Type
	V uint64
}

// Int64 returns c's value as an int64: exact for every signed type and
// every unsigned value below 2^63.
func (c Const) Int64() int64 { return int64(c.V) }

var (
	errDivZero  = errors.New("division by zero")
	errOverflow = errors.New("integer overflow")
)

// boolConst is the int 1 or 0 a comparison or logical operator yields.
func boolConst(b bool) Const {
	if b {
		return Const{T: TInt, V: 1}
	}
	return Const{T: TInt}
}

// ConstConvert converts c to the integer type t (C11 §6.3.1.3): a value t
// cannot represent wraps to t's width, GCC's implementation-defined
// choice for signed t.
func (m *Model) ConstConvert(c Const, t *Type) Const {
	return Const{T: t.Unqualified(), V: m.Wrap(t, c.V)}
}

// ConstUnary applies the unary operator spelled op (+, -, ~ or !) to x
// (C11 §6.5.3.3).
func (m *Model) ConstUnary(op string, x Const) (Const, error) {
	if op == "!" {
		return boolConst(x.V == 0), nil
	}
	x = m.ConstConvert(x, m.Promote(x.T))
	switch op {
	case "+":
		return x, nil
	case "-":
		r := m.ConstConvert(Const{T: x.T, V: -x.V}, x.T)
		if x.T.IsSigned(m) && x.V != 0 && r.V == x.V {
			return r, errOverflow // the type's minimum negated
		}
		return r, nil
	case "~":
		return m.ConstConvert(Const{T: x.T, V: ^x.V}, x.T), nil
	}
	return x, fmt.Errorf("operator %s not allowed", op)
}

// ConstBinary applies the binary operator spelled op to x and y under
// the usual arithmetic conversions (C11 §6.5.5-§6.5.14; the shifts
// promote each operand on its own, §6.5.7:3). && and || take both
// values; the caller decides whether C evaluates the right one.
func (m *Model) ConstBinary(op string, x, y Const) (Const, error) {
	switch op {
	case "&&":
		return boolConst(x.V != 0 && y.V != 0), nil
	case "||":
		return boolConst(x.V != 0 || y.V != 0), nil
	case "<<", ">>":
		return m.constShift(op, m.ConstConvert(x, m.Promote(x.T)), m.ConstConvert(y, m.Promote(y.T)))
	}
	t := m.UsualArith(x.T, y.T)
	a, b := m.Wrap(t, x.V), m.Wrap(t, y.V)
	signed := t.IsSigned(m)
	order := cmp.Compare(a, b)
	if signed {
		order = cmp.Compare(int64(a), int64(b))
	}
	var v uint64
	exact := true // the mathematical result fits in an int64
	switch op {
	case "==":
		return boolConst(order == 0), nil
	case "!=":
		return boolConst(order != 0), nil
	case "<":
		return boolConst(order < 0), nil
	case ">":
		return boolConst(order > 0), nil
	case "<=":
		return boolConst(order <= 0), nil
	case ">=":
		return boolConst(order >= 0), nil
	case "&":
		v = a & b
	case "|":
		v = a | b
	case "^":
		v = a ^ b
	case "+":
		v = a + b
		exact = (int64(a) < 0) != (int64(b) < 0) || (int64(v) < 0) == (int64(a) < 0)
	case "-":
		v = a - b
		exact = (int64(a) < 0) == (int64(b) < 0) || (int64(v) < 0) == (int64(a) < 0)
	case "*":
		v = a * b
		exact = a == 0 || int64(v)/int64(a) == int64(b) && !(int64(a) == -1 && int64(b) == math.MinInt64)
	case "/", "%":
		if b == 0 {
			return Const{T: t}, errDivZero
		}
		if !signed {
			v = a / b
			if op == "%" {
				v = a % b
			}
			break
		}
		// a % b is undefined whenever a / b is (C11 §6.5.5:6).
		q := int64(a) / int64(b)
		exact = !(int64(a) == math.MinInt64 && int64(b) == -1) && q == int64(m.Wrap(t, uint64(q)))
		v = uint64(q)
		if op == "%" {
			v = uint64(int64(a) % int64(b))
		}
	default:
		return Const{T: t}, fmt.Errorf("operator %s not allowed", op)
	}
	r := Const{T: t, V: m.Wrap(t, v)}
	return r, overflowIf(signed && (!exact || r.V != v))
}

// constShift shifts the promoted x by the promoted y (C11 §6.5.7).
func (m *Model) constShift(op string, x, y Const) (Const, error) {
	n := int64(y.V)
	if w := m.Size(x.T) * 8; n < 0 || n >= w {
		return x, fmt.Errorf("shift count %d out of range", n)
	}
	signed := x.T.IsSigned(m)
	if op == ">>" {
		if signed {
			return Const{T: x.T, V: uint64(int64(x.V) >> n)}, nil
		}
		return Const{T: x.T, V: x.V >> n}, nil
	}
	r := m.ConstConvert(Const{T: x.T, V: x.V << n}, x.T)
	// A signed E1 << E2 is defined only for a nonnegative E1 whose
	// product with 2^E2 the type represents (§6.5.7:4).
	return r, overflowIf(signed && (int64(x.V) < 0 || x.V > m.IntMax(x.T)>>n))
}

// ConstCond is c ? x : y (C11 §6.5.15): the chosen operand converted to
// the type the usual arithmetic conversions give both.
func (m *Model) ConstCond(c, x, y Const) Const {
	t := m.UsualArith(x.T, y.T)
	if c.V != 0 {
		return m.ConstConvert(x, t)
	}
	return m.ConstConvert(y, t)
}

func overflowIf(b bool) error {
	if b {
		return errOverflow
	}
	return nil
}
