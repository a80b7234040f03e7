package parser

import (
	"fmt"

	"repro/internal/cast"
)

// constEval evaluates an integer constant expression at parse time (array
// sizes, enum values, bit-field widths, _Static_assert, case labels).
// Floating constants are allowed where they are immediately cast to an
// integer. Identifiers must be enum constants.
func (p *Parser) constEval(e cast.Expr) (int64, error) {
	v, err := p.constEvalFull(e)
	if err != nil {
		return 0, err
	}
	return v, nil
}

func (p *Parser) constEvalFull(e cast.Expr) (int64, error) {
	switch e := e.(type) {
	case *cast.IntLit:
		return int64(e.Value), nil
	case *cast.Ident:
		if info, ok := p.names.Lookup(e.Name); ok && info.kind == nameEnumConst {
			return info.val, nil
		}
		return 0, fmt.Errorf("%s: %q is not a constant", e.Pos(), e.Name)
	case *cast.Unary:
		x, err := p.constEvalFull(e.X)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case cast.UPlus:
			return x, nil
		case cast.UNeg:
			return -x, nil
		case cast.UCompl:
			return ^x, nil
		case cast.UNot:
			if x == 0 {
				return 1, nil
			}
			return 0, nil
		}
		return 0, fmt.Errorf("%s: operator %v not allowed in constant expression", e.Pos(), e.Op)
	case *cast.Binary:
		if e.Op == cast.BLogAnd || e.Op == cast.BLogOr {
			x, err := p.constEvalFull(e.X)
			if err != nil {
				return 0, err
			}
			if e.Op == cast.BLogAnd && x == 0 {
				return 0, nil
			}
			if e.Op == cast.BLogOr && x != 0 {
				return 1, nil
			}
			y, err := p.constEvalFull(e.Y)
			if err != nil {
				return 0, err
			}
			if y != 0 {
				return 1, nil
			}
			return 0, nil
		}
		x, err := p.constEvalFull(e.X)
		if err != nil {
			return 0, err
		}
		y, err := p.constEvalFull(e.Y)
		if err != nil {
			return 0, err
		}
		b2i := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		switch e.Op {
		case cast.BAdd:
			return x + y, nil
		case cast.BSub:
			return x - y, nil
		case cast.BMul:
			return x * y, nil
		case cast.BDiv:
			if y == 0 {
				return 0, fmt.Errorf("%s: division by zero in constant expression", e.Pos())
			}
			return x / y, nil
		case cast.BRem:
			if y == 0 {
				return 0, fmt.Errorf("%s: remainder by zero in constant expression", e.Pos())
			}
			return x % y, nil
		case cast.BShl:
			if y < 0 || y >= 64 {
				return 0, fmt.Errorf("%s: shift count %d out of range in constant expression", e.Pos(), y)
			}
			return x << uint(y), nil
		case cast.BShr:
			if y < 0 || y >= 64 {
				return 0, fmt.Errorf("%s: shift count %d out of range in constant expression", e.Pos(), y)
			}
			return x >> uint(y), nil
		case cast.BLt:
			return b2i(x < y), nil
		case cast.BGt:
			return b2i(x > y), nil
		case cast.BLe:
			return b2i(x <= y), nil
		case cast.BGe:
			return b2i(x >= y), nil
		case cast.BEq:
			return b2i(x == y), nil
		case cast.BNe:
			return b2i(x != y), nil
		case cast.BAnd:
			return x & y, nil
		case cast.BXor:
			return x ^ y, nil
		case cast.BOr:
			return x | y, nil
		}
		return 0, fmt.Errorf("%s: operator %v not allowed in constant expression", e.Pos(), e.Op)
	case *cast.Cond:
		c, err := p.constEvalFull(e.C)
		if err != nil {
			return 0, err
		}
		if c != 0 {
			return p.constEvalFull(e.Then)
		}
		return p.constEvalFull(e.Else)
	case *cast.Cast:
		if !e.To.IsInteger() {
			return 0, fmt.Errorf("%s: non-integer cast in constant expression", e.Pos())
		}
		if f, ok := e.X.(*cast.FloatLit); ok {
			return int64(p.model.Wrap(e.To, uint64(int64(f.Value)))), nil
		}
		x, err := p.constEvalFull(e.X)
		if err != nil {
			return 0, err
		}
		return int64(p.model.Wrap(e.To, uint64(x))), nil
	case *cast.SizeofType:
		if e.IsAlign {
			return p.model.Align(e.Of), nil
		}
		if !e.Of.IsComplete() {
			return 0, fmt.Errorf("%s: sizeof incomplete type %s", e.Pos(), e.Of)
		}
		return p.model.Size(e.Of), nil
	case *cast.SizeofExpr:
		// Only literal operands are constant without full type checking.
		switch x := e.X.(type) {
		case *cast.IntLit:
			return p.model.Size(x.T), nil
		case *cast.FloatLit:
			return p.model.Size(x.T), nil
		case *cast.StringLit:
			return int64(len(x.Value) + 1), nil
		}
		return 0, fmt.Errorf("%s: sizeof of non-literal expression is not constant here", e.Pos())
	case *cast.Comma:
		return 0, fmt.Errorf("%s: comma operator not allowed in constant expression", e.Pos())
	}
	return 0, fmt.Errorf("%s: not a constant expression", e.Pos())
}
