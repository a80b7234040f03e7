package sema

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/ub"
)

func (c *checker) stmts(list []cast.Stmt) error {
	for _, s := range list {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s cast.Stmt) error {
	switch s := s.(type) {
	case *cast.Empty:
		return nil
	case *cast.ExprStmt:
		_, err := c.expr(s.X)
		return err
	case *cast.DeclStmt:
		for _, d := range s.Decls {
			if err := c.localDecl(d); err != nil {
				return err
			}
		}
		return nil
	case *cast.Compound:
		c.scopes.Push()
		err := c.stmts(s.List)
		c.scopes.Pop()
		return err
	case *cast.If:
		if _, err := c.expr(s.Cond); err != nil {
			return err
		}
		if !value(s.Cond).IsScalar() {
			return c.errorf(s.Cond.Pos(), "if condition is not scalar (%s)", s.Cond.Type())
		}
		if err := c.stmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else)
		}
		return nil
	case *cast.While:
		if _, err := c.expr(s.Cond); err != nil {
			return err
		}
		if !value(s.Cond).IsScalar() {
			return c.errorf(s.Cond.Pos(), "while condition is not scalar")
		}
		c.loopDepth++
		err := c.stmt(s.Body)
		c.loopDepth--
		return err
	case *cast.DoWhile:
		c.loopDepth++
		if err := c.stmt(s.Body); err != nil {
			c.loopDepth--
			return err
		}
		c.loopDepth--
		if _, err := c.expr(s.Cond); err != nil {
			return err
		}
		if !value(s.Cond).IsScalar() {
			return c.errorf(s.Cond.Pos(), "do-while condition is not scalar")
		}
		return nil
	case *cast.For:
		c.scopes.Push()
		defer c.scopes.Pop()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if _, err := c.expr(s.Cond); err != nil {
				return err
			}
			if !value(s.Cond).IsScalar() {
				return c.errorf(s.Cond.Pos(), "for condition is not scalar")
			}
		}
		if s.Post != nil {
			if _, err := c.expr(s.Post); err != nil {
				return err
			}
		}
		c.loopDepth++
		err := c.stmt(s.Body)
		c.loopDepth--
		return err
	case *cast.Switch:
		if _, err := c.expr(s.Tag); err != nil {
			return err
		}
		if !value(s.Tag).IsInteger() {
			return c.errorf(s.Tag.Pos(), "switch expression is not an integer")
		}
		c.switches = append(c.switches, s)
		c.loopDepth++ // allow break
		err := c.stmt(s.Body)
		c.loopDepth--
		c.switches = c.switches[:len(c.switches)-1]
		if err != nil {
			return err
		}
		// Duplicate case check; every case and default is a jump target.
		seen := make(map[int64]bool, len(s.Cases))
		for _, cs := range s.Cases {
			if seen[cs.Value] {
				return c.errorf(cs.P, "duplicate case value %d", cs.Value)
			}
			seen[cs.Value] = true
			c.checkJumpVLA(s.Body, s, cs, cs.P)
		}
		if s.Dflt != nil {
			c.checkJumpVLA(s.Body, s, s.Dflt, s.Dflt.P)
		}
		return nil
	case *cast.Case:
		if len(c.switches) == 0 {
			return c.errorf(s.P, "case label outside switch")
		}
		if _, err := c.expr(s.Expr); err != nil {
			return err
		}
		v, err := cast.FoldInt(c.model, s.Expr)
		if err != nil {
			return c.errorf(s.P, "case label is not constant: %v", err)
		}
		s.Value = v.Int64()
		sw := c.switches[len(c.switches)-1]
		sw.Cases = append(sw.Cases, s)
		return c.stmt(s.Stmt)
	case *cast.Default:
		if len(c.switches) == 0 {
			return c.errorf(s.P, "default label outside switch")
		}
		sw := c.switches[len(c.switches)-1]
		if sw.Dflt != nil {
			return c.errorf(s.P, "multiple default labels in one switch")
		}
		sw.Dflt = s
		return c.stmt(s.Stmt)
	case *cast.Label:
		if _, dup := c.labels[s.Name]; dup {
			return c.errorf(s.P, "duplicate label %q", s.Name)
		}
		if c.labels == nil {
			c.labels = make(map[string]*cast.Label)
		}
		c.labels[s.Name] = s
		return c.stmt(s.Stmt)
	case *cast.Goto:
		c.gotos = append(c.gotos, s)
		return nil
	case *cast.Break:
		if c.loopDepth == 0 {
			return c.errorf(s.P, "break outside loop or switch")
		}
		return nil
	case *cast.Continue:
		if c.loopDepth == 0 {
			return c.errorf(s.P, "continue outside loop")
		}
		return nil
	case *cast.Return:
		ret := c.curFunc.Type.Elem
		if s.X == nil {
			c.sawPlainReturn = true
			if ret.Kind != ctypes.Void {
				// C11 §6.9.1:12 — only undefined if the caller uses the
				// value; statically flagged per the paper's classification.
				c.staticUB(ub.ReturnNoValue, s.P,
					"Return without a value in function %q returning %s", c.curFunc.Name, ret)
			}
			return nil
		}
		c.sawReturnValue = true
		if _, err := c.expr(s.X); err != nil {
			return err
		}
		if ret.Kind == ctypes.Void {
			return nil // flagged at function end
		}
		return c.checkAssignable(ret, s.X, s.P)
	}
	return c.errorf(s.Pos(), "unhandled statement %T", s)
}
