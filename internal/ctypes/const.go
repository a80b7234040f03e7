package ctypes

import (
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

// Op is a C integer operator, as the arithmetic core names it. The binary
// operators come first, in the order of cast.BinaryOp, whose values they
// are; the unary ones follow.
type Op uint8

// Integer operators.
const (
	OpAdd    Op = iota // +
	OpSub              // -
	OpMul              // *
	OpDiv              // /
	OpRem              // %
	OpShl              // <<
	OpShr              // >>
	OpLt               // <
	OpGt               // >
	OpLe               // <=
	OpGe               // >=
	OpEq               // ==
	OpNe               // !=
	OpAnd              // &
	OpXor              // ^
	OpOr               // |
	OpLogAnd           // &&
	OpLogOr            // ||
	OpPlus             // unary +
	OpNeg              // unary -
	OpCompl            // ~
	OpNot              // !
)

// Truth reports whether op yields an int 1 or 0: the comparisons and the
// logical operators (C11 §6.5.8:6, §6.5.9:3, §6.5.13-14, §6.5.3.3:5).
func (op Op) Truth() bool {
	return op >= OpLt && op <= OpNe || op == OpLogAnd || op == OpLogOr || op == OpNot
}

// The evaluations C leaves undefined, as Arith reports them.
var (
	ErrDivZero    = errors.New("division by zero")
	ErrOverflow   = errors.New("integer overflow") // signed overflow, INT_MIN / -1 included
	ErrShiftCount = errors.New("shift count out of range")
	ErrShiftNeg   = errors.New("left shift of a negative value")
)

// Arith is C's integer arithmetic, the one implementation of its integer
// operators for constant expressions, #if and run time. It applies op to
// a and b, the canonical representations (Wrap) of operands already
// converted to t: the type the usual arithmetic conversions give both,
// or for a shift the promoted left operand's type, b then being the
// count in its own promoted type. A unary operator takes the promoted a
// and ignores b. The result is canonical in t, or the int 1 or 0 if
// op.Truth().
//
// An evaluation C leaves undefined returns ErrDivZero (C11 §6.5.5:5),
// ErrOverflow (§6.5:5; INT_MIN / -1 and INT_MIN % -1 too, §6.5.5:6, and a
// signed left shift whose product t cannot represent, §6.5.7:4),
// ErrShiftCount (a count below 0 or not below t's width, §6.5.7:3) or
// ErrShiftNeg (a negative left operand of <<, §6.5.7:4), bare, so callers
// compare with ==. With ErrOverflow and ErrShiftNeg the result is the
// value wrapped to t.
func (m *Model) Arith(op Op, t *Type, a, b uint64) (uint64, error) {
	signed := t.IsSigned(m)
	var v uint64
	exact := true // the mathematical result fits in an int64
	switch op {
	case OpLt:
		return b2u(less(a, b, signed)), nil
	case OpGt:
		return b2u(less(b, a, signed)), nil
	case OpLe:
		return b2u(!less(b, a, signed)), nil
	case OpGe:
		return b2u(!less(a, b, signed)), nil
	case OpEq:
		return b2u(a == b), nil
	case OpNe:
		return b2u(a != b), nil
	case OpLogAnd:
		return b2u(a != 0 && b != 0), nil
	case OpLogOr:
		return b2u(a != 0 || b != 0), nil
	case OpNot:
		return b2u(a == 0), nil
	case OpPlus:
		return a, nil
	case OpShl, OpShr:
		return m.shift(op, t, signed, a, b)
	case OpAnd:
		v = a & b
	case OpOr:
		v = a | b
	case OpXor:
		v = a ^ b
	case OpCompl:
		v = ^a
	case OpNeg:
		v = -a
		exact = int64(a) != math.MinInt64
	case OpAdd:
		v = a + b
		exact = (int64(a) < 0) != (int64(b) < 0) || (int64(v) < 0) == (int64(a) < 0)
	case OpSub:
		v = a - b
		exact = (int64(a) < 0) == (int64(b) < 0) || (int64(v) < 0) == (int64(a) < 0)
	case OpMul:
		v = a * b
		exact = a == 0 || int64(v)/int64(a) == int64(b) && !(int64(a) == -1 && int64(b) == math.MinInt64)
	case OpDiv, OpRem:
		if b == 0 {
			return 0, ErrDivZero
		}
		if !signed {
			v = a / b
			if op == OpRem {
				v = a % b
			}
			break
		}
		// a % b is undefined whenever a / b is (C11 §6.5.5:6).
		q := int64(a) / int64(b)
		exact = !(int64(a) == math.MinInt64 && int64(b) == -1) && q == int64(m.Wrap(t, uint64(q)))
		v = uint64(q)
		if op == OpRem {
			v = uint64(int64(a) % int64(b))
		}
	}
	r := m.Wrap(t, v)
	if signed && (!exact || r != v) {
		return r, ErrOverflow
	}
	return r, nil
}

// shift is a << b or a >> b in t (C11 §6.5.7).
func (m *Model) shift(op Op, t *Type, signed bool, a, b uint64) (uint64, error) {
	if n := int64(b); n < 0 || n >= m.Size(t)*8 {
		return a, ErrShiftCount
	}
	if op == OpShr {
		if signed {
			return uint64(int64(a) >> b), nil
		}
		return a >> b, nil
	}
	r := m.Wrap(t, a<<b)
	switch {
	case signed && int64(a) < 0:
		return r, ErrShiftNeg
	case signed && a > m.IntMax(t)>>b:
		// A signed E1 << E2 is defined only if t represents E1 × 2^E2.
		return r, ErrOverflow
	}
	return r, nil
}

func less(a, b uint64, signed bool) bool {
	if signed {
		return int64(a) < int64(b)
	}
	return a < b
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ConstConvert converts c to the integer type t (C11 §6.3.1.3): a value t
// cannot represent wraps to t's width, GCC's implementation-defined
// choice for signed t.
func (m *Model) ConstConvert(c Const, t *Type) Const {
	return Const{T: t.Unqualified(), V: m.Wrap(t, c.V)}
}

// ConstUnary applies the unary operator op (OpPlus, OpNeg, OpCompl or
// OpNot) to x (C11 §6.5.3.3).
func (m *Model) ConstUnary(op Op, x Const) (Const, error) {
	x = m.ConstConvert(x, m.Promote(x.T))
	return m.result(op, x.T, x.V, 0)
}

// ConstBinary applies the binary operator op to x and y under the usual
// arithmetic conversions (C11 §6.5.5-§6.5.14; the shifts promote each
// operand on its own, §6.5.7:3). && and || take both values; the caller
// decides whether C evaluates the right one.
func (m *Model) ConstBinary(op Op, x, y Const) (Const, error) {
	t := m.UsualArith(x.T, y.T)
	if op == OpShl || op == OpShr {
		t, y = m.Promote(x.T), m.ConstConvert(y, m.Promote(y.T))
	} else {
		y = m.ConstConvert(y, t)
	}
	r, err := m.result(op, t, m.Wrap(t, x.V), y.V)
	if err == ErrShiftCount {
		err = fmt.Errorf("shift count %d out of range", int64(y.V))
	}
	return r, err
}

// result is Arith's value as a Const of its type. It still carries that
// type when the evaluation is undefined, for operands C does not evaluate
// (§6.6:3).
func (m *Model) result(op Op, t *Type, a, b uint64) (Const, error) {
	v, err := m.Arith(op, t, a, b)
	if op.Truth() {
		t = TInt
	}
	return Const{T: t, V: v}, err
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
