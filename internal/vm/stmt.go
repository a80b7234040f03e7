package vm

// Statement compilation. Each statement becomes a cstmt whose run closure
// mirrors the tree walker's exec case for that node; the enter closure
// mirrors enter. Block jump-target indexes and declaration pre-pass lists
// are computed here, once, instead of the per-jump subtree scans the tree
// walker performs.

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/interp"
	"repro/internal/mem"
)

func (c *compiler) compileStmt(s cast.Stmt) *cstmt {
	pos := s.Pos()
	switch s := s.(type) {
	case *cast.Empty:
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return flowNone, nil
		}}

	case *cast.ExprStmt:
		cx := c.compileExpr(s.X)
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			if _, err := cx(in); err != nil {
				return flowNone, err
			}
			in.SeqPt() // end of a full expression
			return flowNone, nil
		}}

	case *cast.DeclStmt:
		decls := make([]cdecl, len(s.Decls))
		for i, d := range s.Decls {
			decls[i] = c.compileDecl(d)
		}
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			for _, d := range decls {
				if err := d(in); err != nil {
					return flowNone, err
				}
				in.SeqPt() // end of each init-declarator (C11 §6.7.6:3)
			}
			return flowNone, nil
		}}

	case *cast.Compound:
		blk := c.compileCompound(s)
		return &cstmt{
			run: func(in *interp.Interp) (interp.Ctrl, error) {
				if err := in.Step(pos); err != nil {
					return flowNone, err
				}
				return blk.enter(in, nil)
			},
			enter: blk.enter,
		}

	case *cast.If:
		cond := c.compileCond(s.Cond)
		then := c.compileStmt(s.Then)
		var els *cstmt
		if s.Else != nil {
			els = c.compileStmt(s.Else)
		}
		thenAST := s.Then
		return &cstmt{
			run: func(in *interp.Interp) (interp.Ctrl, error) {
				if err := in.Step(pos); err != nil {
					return flowNone, err
				}
				b, err := cond(in)
				if err != nil {
					return flowNone, err
				}
				in.SeqPt()
				if b {
					return then.run(in)
				}
				if els != nil {
					return els.run(in)
				}
				return flowNone, nil
			},
			enter: func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
				if els == nil || cast.Contains(thenAST, target) {
					return then.from(in, target)
				}
				return els.from(in, target)
			},
		}

	case *cast.While:
		return c.compileWhile(s)
	case *cast.DoWhile:
		return c.compileDoWhile(s)
	case *cast.For:
		return c.compileFor(s)
	case *cast.Switch:
		return c.compileSwitch(s)

	case *cast.Case:
		return c.compileLabeled(s, s.Stmt)
	case *cast.Default:
		return c.compileLabeled(s, s.Stmt)
	case *cast.Label:
		return c.compileLabeled(s, s.Stmt)

	case *cast.Goto:
		target := c.fn.Labels[s.Name]
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return interp.Ctrl{Kind: interp.CtrlGoto, Target: target}, nil
		}}

	case *cast.Break:
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return interp.Ctrl{Kind: interp.CtrlBreak}, nil
		}}

	case *cast.Continue:
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return interp.Ctrl{Kind: interp.CtrlContinue}, nil
		}}

	case *cast.Return:
		if s.X == nil {
			return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
				if err := in.Step(pos); err != nil {
					return flowNone, err
				}
				return interp.Ctrl{Kind: interp.CtrlReturn, Value: nil}, nil
			}}
		}
		cx := c.compileExpr(s.X)
		ret := c.fn.Type.Elem
		isVoid := ret.Kind == ctypes.Void
		return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			v, err := cx(in)
			if err != nil {
				return flowNone, err
			}
			in.SeqPt()
			if isVoid {
				return interp.Ctrl{Kind: interp.CtrlReturn, Value: mem.Void{}}, nil
			}
			cv, err := in.ConvertForStore(v, ret, pos)
			if err != nil {
				return flowNone, err
			}
			return interp.Ctrl{Kind: interp.CtrlReturn, Value: cv}, nil
		}}
	}

	return &cstmt{run: func(in *interp.Interp) (interp.Ctrl, error) {
		if err := in.Step(pos); err != nil {
			return flowNone, err
		}
		return flowNone, in.UBErrorf(interp.SiteInternal, pos, "Unhandled statement %T", s)
	}}
}

// compileLabeled compiles a labeled statement: a goto's label, a case or
// a default. Run, it takes a step and runs its statement. Entered at
// itself, a goto's label runs its statement without the step (the goto
// took it) and a case or default runs as a statement.
func (c *compiler) compileLabeled(s, stmt cast.Stmt) *cstmt {
	pos := s.Pos()
	_, named := s.(*cast.Label)
	inner := c.compileStmt(stmt)
	run := func(in *interp.Interp) (interp.Ctrl, error) {
		if err := in.Step(pos); err != nil {
			return flowNone, err
		}
		return inner.run(in)
	}
	return &cstmt{
		run: run,
		enter: func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
			switch {
			case target != s:
				return inner.from(in, target)
			case named:
				return inner.run(in)
			}
			return run(in)
		},
	}
}

// ---------- compound statements ----------

// ccompound is a compiled block: its statements, the declaration pre-pass
// list (lifetimes begin at block entry, C11 §6.2.4:5), and the index of
// the jump targets it contains, replacing the tree walker's jumpIndex
// scans.
type ccompound struct {
	stmts []*cstmt
	decls []*cast.Decl
	// at maps each jump target in the block (a label of the function, a
	// case or default of the innermost enclosing switch) to the index of
	// the statement that contains it.
	at map[cast.Stmt]int
}

func (c *compiler) compileCompound(blk *cast.Compound) *ccompound {
	b := &ccompound{stmts: make([]*cstmt, len(blk.List))}
	for i, s := range blk.List {
		b.stmts[i] = c.compileStmt(s)
		if ds, ok := s.(*cast.DeclStmt); ok {
			b.decls = append(b.decls, ds.Decls...)
		}
	}
	for _, l := range c.fn.Labels {
		b.index(blk, l)
	}
	if c.sw != nil {
		for _, cs := range c.sw.Cases {
			b.index(blk, cs)
		}
		if c.sw.Dflt != nil {
			b.index(blk, c.sw.Dflt)
		}
	}
	return b
}

// index records which statement of blk contains target, if one does.
func (b *ccompound) index(blk *cast.Compound, target cast.Stmt) {
	for i, s := range blk.List {
		if cast.Contains(s, target) {
			if b.at == nil {
				b.at = make(map[cast.Stmt]int)
			}
			b.at[target] = i
			return
		}
	}
}

// enter mirrors execBlock: block lifetimes, the declaration pre-pass,
// entry at a jump target (nil: at the beginning), and the goto dispatch
// loop.
func (b *ccompound) enter(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
	in.PushBlock()
	defer in.PopBlock()

	for _, d := range b.decls {
		if err := in.AllocLocal(d); err != nil {
			return flowNone, err
		}
	}

	i := 0
	if target != nil {
		var ok bool
		if i, ok = b.at[target]; !ok {
			i = len(b.stmts)
		}
	}
	for i < len(b.stmts) {
		ct, err := b.stmts[i].from(in, target)
		target = nil
		if err != nil {
			return flowNone, err
		}
		if ct.Kind == interp.CtrlGoto {
			if j, ok := b.at[ct.Target]; ok {
				i, target = j, ct.Target
				continue
			}
		}
		if ct.Kind != interp.CtrlNone {
			return ct, nil
		}
		i++
	}
	return flowNone, nil
}

// ---------- loops ----------

// Each loop's enter entry is its loop function with the jump target its
// body is entered at; run passes nil. Entering at a target skips the
// first controlling expression.

func (c *compiler) compileWhile(s *cast.While) *cstmt {
	pos := s.Pos()
	cond := c.compileCond(s.Cond)
	body := c.compileStmt(s.Body)
	loop := func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
		for ; ; target = nil {
			if target == nil {
				b, err := cond(in)
				if err != nil {
					return flowNone, err
				}
				in.SeqPt()
				if !b {
					return flowNone, nil
				}
			}
			ct, err := body.from(in, target)
			if err != nil {
				return flowNone, err
			}
			switch ct.Kind {
			case interp.CtrlBreak:
				return flowNone, nil
			case interp.CtrlReturn, interp.CtrlGoto:
				return ct, nil
			}
		}
	}
	return &cstmt{
		run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return loop(in, nil)
		},
		enter: loop,
	}
}

func (c *compiler) compileDoWhile(s *cast.DoWhile) *cstmt {
	pos := s.Pos()
	cond := c.compileCond(s.Cond)
	body := c.compileStmt(s.Body)
	loop := func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
		for ; ; target = nil {
			ct, err := body.from(in, target)
			if err != nil {
				return flowNone, err
			}
			switch ct.Kind {
			case interp.CtrlBreak:
				return flowNone, nil
			case interp.CtrlReturn, interp.CtrlGoto:
				return ct, nil
			}
			b, err := cond(in)
			if err != nil {
				return flowNone, err
			}
			in.SeqPt()
			if !b {
				return flowNone, nil
			}
		}
	}
	return &cstmt{
		run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return loop(in, nil)
		},
		enter: loop,
	}
}

func (c *compiler) compileFor(s *cast.For) *cstmt {
	pos := s.Pos()
	var initDecls []*cast.Decl
	var initStmt *cstmt
	if s.Init != nil {
		if ds, ok := s.Init.(*cast.DeclStmt); ok {
			initDecls = ds.Decls
		}
		initStmt = c.compileStmt(s.Init)
	}
	var cond ccond
	if s.Cond != nil {
		cond = c.compileCond(s.Cond)
	}
	var post cexpr
	if s.Post != nil {
		post = c.compileExpr(s.Post)
	}
	body := c.compileStmt(s.Body)
	loop := func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
		// The for statement is its own block: objects declared in the
		// init-clause live until the loop exits (C11 §6.8.5:5), also
		// when a jump enters the body past the init clause.
		in.PushBlock()
		defer in.PopBlock()
		for _, d := range initDecls {
			if err := in.AllocLocal(d); err != nil {
				return flowNone, err
			}
		}
		if target == nil && initStmt != nil {
			if _, err := initStmt.run(in); err != nil {
				return flowNone, err
			}
		}
		for ; ; target = nil {
			if target == nil && cond != nil {
				b, err := cond(in)
				if err != nil {
					return flowNone, err
				}
				in.SeqPt()
				if !b {
					return flowNone, nil
				}
			}
			ct, err := body.from(in, target)
			if err != nil {
				return flowNone, err
			}
			switch ct.Kind {
			case interp.CtrlBreak:
				return flowNone, nil
			case interp.CtrlReturn, interp.CtrlGoto:
				return ct, nil
			}
			if post != nil {
				if _, err := post(in); err != nil {
					return flowNone, err
				}
				in.SeqPt()
			}
		}
	}
	return &cstmt{
		run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			return loop(in, nil)
		},
		enter: loop,
	}
}

// ---------- switch ----------

func (c *compiler) compileSwitch(s *cast.Switch) *cstmt {
	pos := s.Pos()
	tagPos := s.Tag.Pos()
	ctag := c.compileExpr(s.Tag)
	outer := c.sw
	c.sw = s
	body := c.compileStmt(s.Body)
	c.sw = outer
	cases := s.Cases
	dflt := s.Dflt
	// enter mirrors switchBody: a break ends the switch.
	enter := func(in *interp.Interp, target cast.Stmt) (interp.Ctrl, error) {
		ct, err := body.from(in, target)
		if err != nil {
			return flowNone, err
		}
		if ct.Kind == interp.CtrlBreak {
			return flowNone, nil
		}
		return ct, nil
	}
	return &cstmt{
		run: func(in *interp.Interp) (interp.Ctrl, error) {
			if err := in.Step(pos); err != nil {
				return flowNone, err
			}
			v, err := ctag(in)
			if err != nil {
				return flowNone, err
			}
			v, err = in.Usable(v, tagPos)
			if err != nil {
				return flowNone, err
			}
			in.SeqPt()
			iv, ok := v.(mem.Int)
			if !ok {
				return flowNone, in.UBErrorf(interp.SiteInternal, tagPos, "Switch tag is not an integer")
			}
			// Promote the tag and compare with the case constants converted
			// to the promoted type (C11 §6.8.4.2:5).
			m := in.Model()
			promoted := m.Promote(iv.T)
			tag := m.Wrap(promoted, iv.Bits)
			var target cast.Stmt
			for _, cs := range cases {
				if m.Wrap(promoted, uint64(cs.Value)) == tag {
					target = cs
					break
				}
			}
			if target == nil {
				if dflt == nil {
					return flowNone, nil
				}
				target = dflt
			}
			return enter(in, target)
		},
		enter: enter,
	}
}
