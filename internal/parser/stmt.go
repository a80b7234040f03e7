package parser

import (
	"repro/internal/cast"
	"repro/internal/token"
)

// compound parses `{ ... }`. The caller manages the scope when the block
// shares one with function parameters; otherwise compound pushes its own.
func (p *Parser) compound() (*cast.Compound, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	c := &cast.Compound{}
	c.P = lb.Pos
	for !p.at(token.RBrace) {
		if p.at(token.EOF) {
			return nil, p.errorf(p.tok.Pos, "unterminated block")
		}
		s, err := p.blockItem()
		if err != nil {
			return nil, err
		}
		if s != nil {
			c.List = append(c.List, s)
		}
	}
	p.next() // }
	return c, nil
}

// blockItem parses a declaration or statement inside a block.
func (p *Parser) blockItem() (cast.Stmt, error) {
	if p.at(token.KwStaticAssert) {
		if err := p.staticAssert(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	// `ident:` is a label even if ident names a type.
	if p.at(token.Ident) && p.ahead.Kind == token.Colon {
		return p.statement()
	}
	if p.startsDecl(p.tok) {
		return p.declStmt()
	}
	return p.statement()
}

// declStmt parses a block-scope declaration.
func (p *Parser) declStmt() (cast.Stmt, error) {
	pos := p.tok.Pos
	spec, err := p.declSpecifiers()
	if err != nil {
		return nil, err
	}
	ds := &cast.DeclStmt{}
	ds.P = pos
	if p.accept(token.Semi) {
		return ds, nil // tag-only declaration
	}
	name, ty, npos, err := p.declarator(spec.typ)
	if err != nil {
		return nil, err
	}
	decls, err := p.finishDeclaration(spec, name, ty, npos)
	if err != nil {
		return nil, err
	}
	ds.Decls = decls
	return ds, nil
}

// statement parses one statement.
func (p *Parser) statement() (cast.Stmt, error) {
	t := p.tok
	switch t.Kind {
	case token.LBrace:
		p.pushScope()
		c, err := p.compound()
		p.popScope()
		return c, err
	case token.Semi:
		p.next()
		e := &cast.Empty{}
		e.P = t.Pos
		return e, nil
	case token.KwIf:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		thenS, err := p.statement()
		if err != nil {
			return nil, err
		}
		var elseS cast.Stmt
		if p.accept(token.KwElse) {
			elseS, err = p.statement()
			if err != nil {
				return nil, err
			}
		}
		s := &cast.If{Cond: cond, Then: thenS, Else: elseS}
		s.P = t.Pos
		return s, nil
	case token.KwWhile:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		s := &cast.While{Cond: cond, Body: body}
		s.P = t.Pos
		return s, nil
	case token.KwDo:
		p.next()
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.KwWhile); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		cond, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &cast.DoWhile{Body: body, Cond: cond}
		s.P = t.Pos
		return s, nil
	case token.KwFor:
		return p.forStmt()
	case token.KwSwitch:
		p.next()
		if _, err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		tag, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		body, err := p.statement()
		if err != nil {
			return nil, err
		}
		s := &cast.Switch{Tag: tag, Body: body}
		s.P = t.Pos
		return s, nil
	case token.KwCase:
		p.next()
		e, err := p.condExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		s := &cast.Case{Expr: e, Stmt: inner}
		s.P = t.Pos
		return s, nil
	case token.KwDefault:
		p.next()
		if _, err := p.expect(token.Colon); err != nil {
			return nil, err
		}
		inner, err := p.statement()
		if err != nil {
			return nil, err
		}
		s := &cast.Default{Stmt: inner}
		s.P = t.Pos
		return s, nil
	case token.KwGoto:
		p.next()
		id, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &cast.Goto{Name: id.Text}
		s.P = t.Pos
		return s, nil
	case token.KwBreak:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &cast.Break{}
		s.P = t.Pos
		return s, nil
	case token.KwContinue:
		p.next()
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &cast.Continue{}
		s.P = t.Pos
		return s, nil
	case token.KwReturn:
		p.next()
		var x cast.Expr
		if !p.at(token.Semi) {
			var err error
			x, err = p.Expr()
			if err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		s := &cast.Return{X: x}
		s.P = t.Pos
		return s, nil
	case token.Ident:
		if p.ahead.Kind == token.Colon {
			name := p.next()
			p.next() // :
			inner, err := p.statement()
			if err != nil {
				return nil, err
			}
			s := &cast.Label{Name: name.Text, Stmt: inner}
			s.P = t.Pos
			return s, nil
		}
	}
	// Expression statement.
	e, err := p.Expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	s := &cast.ExprStmt{X: e}
	s.P = t.Pos
	return s, nil
}

func (p *Parser) forStmt() (cast.Stmt, error) {
	t := p.next() // for
	if _, err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	p.pushScope()
	defer p.popScope()
	s := &cast.For{}
	s.P = t.Pos
	// Init clause.
	switch {
	case p.accept(token.Semi):
	case p.startsDecl(p.tok):
		init, err := p.declStmt()
		if err != nil {
			return nil, err
		}
		s.Init = init
	default:
		e, err := p.Expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(token.Semi); err != nil {
			return nil, err
		}
		es := &cast.ExprStmt{X: e}
		es.P = e.Pos()
		s.Init = es
	}
	// Condition.
	if !p.at(token.Semi) {
		cond, err := p.Expr()
		if err != nil {
			return nil, err
		}
		s.Cond = cond
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	// Post.
	if !p.at(token.RParen) {
		post, err := p.Expr()
		if err != nil {
			return nil, err
		}
		s.Post = post
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	s.Body = body
	return s, nil
}
