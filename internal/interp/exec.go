package interp

import (
	"slices"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/mem"
	"repro/internal/spec"
	"repro/internal/token"
	"repro/internal/ub"
)

// Ctrl is the control signal a statement execution produces.
type Ctrl struct {
	Kind  CtrlKind
	Value mem.Value // CtrlReturn
	Label string    // CtrlGoto
}

type CtrlKind int

const (
	CtrlNone CtrlKind = iota
	CtrlBreak
	CtrlContinue
	CtrlReturn
	CtrlGoto
)

var flowNone = Ctrl{Kind: CtrlNone}

// exec runs one statement.
func (in *Interp) exec(s cast.Stmt) (Ctrl, error) {
	if err := in.step(s.Pos()); err != nil {
		return flowNone, err
	}
	switch s := s.(type) {
	case *cast.Empty:
		return flowNone, nil

	case *cast.ExprStmt:
		if _, err := in.eval(s.X); err != nil {
			return flowNone, err
		}
		in.seqPoint() // end of a full expression
		return flowNone, nil

	case *cast.DeclStmt:
		for _, d := range s.Decls {
			if err := in.execDecl(d); err != nil {
				return flowNone, err
			}
			in.seqPoint() // end of each init-declarator (C11 §6.7.6:3)
		}
		return flowNone, nil

	case *cast.Compound:
		return in.execBlock(s, "")

	case *cast.If:
		b, err := in.evalCondition(s.Cond)
		if err != nil {
			return flowNone, err
		}
		in.seqPoint()
		if b {
			return in.exec(s.Then)
		}
		if s.Else != nil {
			return in.exec(s.Else)
		}
		return flowNone, nil

	case *cast.While:
		return in.execWhile(s, false)

	case *cast.DoWhile:
		return in.execDoWhile(s, false)

	case *cast.For:
		return in.execFor(s, false)

	case *cast.Switch:
		return in.execSwitch(s)

	case *cast.Case:
		return in.exec(s.Stmt)
	case *cast.Default:
		return in.exec(s.Stmt)
	case *cast.Label:
		return in.exec(s.Stmt)

	case *cast.Goto:
		return Ctrl{Kind: CtrlGoto, Label: s.Name}, nil
	case *cast.Break:
		return Ctrl{Kind: CtrlBreak}, nil
	case *cast.Continue:
		return Ctrl{Kind: CtrlContinue}, nil

	case *cast.Return:
		if s.X == nil {
			return Ctrl{Kind: CtrlReturn, Value: nil}, nil
		}
		v, err := in.eval(s.X)
		if err != nil {
			return flowNone, err
		}
		in.seqPoint()
		ret := in.curFrame().fn.Type.Elem
		if ret.Kind == ctypes.Void {
			return Ctrl{Kind: CtrlReturn, Value: mem.Void{}}, nil
		}
		cv, err := in.convertForStore(v, ret, s.P)
		if err != nil {
			return flowNone, err
		}
		return Ctrl{Kind: CtrlReturn, Value: cv}, nil
	}
	return flowNone, in.ubError(ub.Catalog[0], s.Pos(), "Unhandled statement %T", s)
}

// execBlock enters a compound statement: automatic objects declared
// anywhere in the block begin their lifetime now (C11 §6.2.4:5) and end it
// at exit. resumeLabel, when non-empty, starts execution at the statement
// containing that label instead of the beginning (goto into the block).
func (in *Interp) execBlock(blk *cast.Compound, resumeLabel string) (Ctrl, error) {
	f := in.curFrame()
	f.pushBlock()
	defer in.popBlock(f)

	// Lifetime pre-pass: allocate non-VLA automatic objects.
	for _, s := range blk.List {
		ds, ok := s.(*cast.DeclStmt)
		if !ok {
			continue
		}
		for _, d := range ds.Decls {
			if err := in.allocLocal(d); err != nil {
				return flowNone, err
			}
		}
	}

	start := 0
	resume := resumeLabel
	if resume != "" {
		idx := -1
		for i, s := range blk.List {
			if containsLabel(s, resume) {
				idx = i
				break
			}
		}
		if idx < 0 {
			// Not in this block (shouldn't happen; sema checked).
			return Ctrl{Kind: CtrlGoto, Label: resume}, nil
		}
		start = idx
	}

	i := start
	for i < len(blk.List) {
		var c Ctrl
		var err error
		if resume != "" {
			c, err = in.execResume(blk.List[i], resume)
			resume = ""
		} else {
			c, err = in.exec(blk.List[i])
		}
		if err != nil {
			return flowNone, err
		}
		if c.Kind == CtrlGoto {
			// Does this block contain the label? If so, jump.
			idx := -1
			for j, s := range blk.List {
				if containsLabel(s, c.Label) {
					idx = j
					break
				}
			}
			if idx < 0 {
				return c, nil // propagate to an enclosing block
			}
			i = idx
			resume = c.Label
			continue
		}
		if c.Kind != CtrlNone {
			return c, nil
		}
		i++
	}
	return flowNone, nil
}

// execResume executes s, starting at the statement labeled label inside it.
func (in *Interp) execResume(s cast.Stmt, label string) (Ctrl, error) {
	switch s := s.(type) {
	case *cast.Label:
		if s.Name == label {
			return in.exec(s.Stmt)
		}
		return in.execResume(s.Stmt, label)
	case *cast.Case:
		return in.execResume(s.Stmt, label)
	case *cast.Default:
		return in.execResume(s.Stmt, label)
	case *cast.Compound:
		return in.execBlock(s, label)
	case *cast.If:
		if containsLabel(s.Then, label) {
			return in.execResume(s.Then, label)
		}
		if s.Else != nil && containsLabel(s.Else, label) {
			return in.execResume(s.Else, label)
		}
	case *cast.While:
		return in.execWhile(s, true, label)
	case *cast.DoWhile:
		return in.execDoWhile(s, true, label)
	case *cast.For:
		return in.execFor(s, true, label)
	case *cast.Switch:
		// Jumping into a switch body.
		c, err := in.execResume(s.Body, label)
		if err != nil {
			return flowNone, err
		}
		if c.Kind == CtrlBreak {
			return flowNone, nil
		}
		return c, nil
	}
	return flowNone, in.ubError(ub.Catalog[0], s.Pos(), "Cannot resume at label %q", label)
}

// containsLabel reports whether the statement subtree contains a label with
// the given name (not crossing into nested functions — C has none).
func containsLabel(s cast.Stmt, label string) bool {
	switch s := s.(type) {
	case *cast.Label:
		return s.Name == label || containsLabel(s.Stmt, label)
	case *cast.Case:
		return containsLabel(s.Stmt, label)
	case *cast.Default:
		return containsLabel(s.Stmt, label)
	case *cast.Compound:
		for _, inner := range s.List {
			if containsLabel(inner, label) {
				return true
			}
		}
	case *cast.If:
		if containsLabel(s.Then, label) {
			return true
		}
		if s.Else != nil {
			return containsLabel(s.Else, label)
		}
	case *cast.While:
		return containsLabel(s.Body, label)
	case *cast.DoWhile:
		return containsLabel(s.Body, label)
	case *cast.For:
		return containsLabel(s.Body, label)
	case *cast.Switch:
		return containsLabel(s.Body, label)
	}
	return false
}

// ---------- loops ----------

func (in *Interp) execWhile(s *cast.While, resuming bool, label ...string) (Ctrl, error) {
	first := true
	for {
		if !(resuming && first) {
			b, err := in.evalCondition(s.Cond)
			if err != nil {
				return flowNone, err
			}
			in.seqPoint()
			if !b {
				return flowNone, nil
			}
		}
		var c Ctrl
		var err error
		if resuming && first {
			c, err = in.execResume(s.Body, label[0])
		} else {
			c, err = in.exec(s.Body)
		}
		first = false
		if err != nil {
			return flowNone, err
		}
		switch c.Kind {
		case CtrlBreak:
			return flowNone, nil
		case CtrlReturn, CtrlGoto:
			return c, nil
		}
	}
}

func (in *Interp) execDoWhile(s *cast.DoWhile, resuming bool, label ...string) (Ctrl, error) {
	first := true
	for {
		var c Ctrl
		var err error
		if resuming && first {
			c, err = in.execResume(s.Body, label[0])
		} else {
			c, err = in.exec(s.Body)
		}
		first = false
		if err != nil {
			return flowNone, err
		}
		switch c.Kind {
		case CtrlBreak:
			return flowNone, nil
		case CtrlReturn, CtrlGoto:
			return c, nil
		}
		b, err := in.evalCondition(s.Cond)
		if err != nil {
			return flowNone, err
		}
		in.seqPoint()
		if !b {
			return flowNone, nil
		}
	}
}

func (in *Interp) execFor(s *cast.For, resuming bool, label ...string) (Ctrl, error) {
	f := in.curFrame()
	f.pushBlock()
	defer in.popBlock(f)
	if !resuming && s.Init != nil {
		if ds, ok := s.Init.(*cast.DeclStmt); ok {
			for _, d := range ds.Decls {
				if err := in.allocLocal(d); err != nil {
					return flowNone, err
				}
			}
		}
		if _, err := in.exec(s.Init); err != nil {
			return flowNone, err
		}
	}
	first := true
	for {
		if !(resuming && first) && s.Cond != nil {
			b, err := in.evalCondition(s.Cond)
			if err != nil {
				return flowNone, err
			}
			in.seqPoint()
			if !b {
				return flowNone, nil
			}
		}
		var c Ctrl
		var err error
		if resuming && first {
			c, err = in.execResume(s.Body, label[0])
		} else {
			c, err = in.exec(s.Body)
		}
		first = false
		if err != nil {
			return flowNone, err
		}
		switch c.Kind {
		case CtrlBreak:
			return flowNone, nil
		case CtrlReturn, CtrlGoto:
			return c, nil
		}
		if s.Post != nil {
			if _, err := in.eval(s.Post); err != nil {
				return flowNone, err
			}
			in.seqPoint()
		}
	}
}

// ---------- switch ----------

func (in *Interp) execSwitch(s *cast.Switch) (Ctrl, error) {
	v, err := in.eval(s.Tag)
	if err != nil {
		return flowNone, err
	}
	v, err = in.usable(v, s.Tag.Pos())
	if err != nil {
		return flowNone, err
	}
	in.seqPoint()
	iv, ok := v.(mem.Int)
	if !ok {
		return flowNone, in.ubError(ub.Catalog[0], s.Tag.Pos(), "Switch tag is not an integer")
	}
	// Promote the tag and compare with the case constants converted to
	// the promoted type (C11 §6.8.4.2:5).
	promoted := in.model.Promote(iv.T)
	tag := in.model.Wrap(promoted, iv.Bits)
	var target cast.Stmt
	for _, cs := range s.Cases {
		if in.model.Wrap(promoted, uint64(cs.Value)) == tag {
			target = cs
			break
		}
	}
	if target == nil {
		if s.Dflt == nil {
			return flowNone, nil
		}
		target = s.Dflt
	}
	c, err := in.execFrom(s.Body, target)
	if err != nil {
		return flowNone, err
	}
	if c.Kind == CtrlBreak {
		return flowNone, nil
	}
	return c, nil
}

// execFrom executes body starting at the statement node `target` (a *Case
// or *Default), falling through subsequent statements.
func (in *Interp) execFrom(body cast.Stmt, target cast.Stmt) (Ctrl, error) {
	switch body := body.(type) {
	case *cast.Compound:
		return in.execBlockFrom(body, target)
	}
	if body == target {
		return in.exec(body)
	}
	if containsStmt(body, target) {
		switch b := body.(type) {
		case *cast.Label:
			return in.execFrom(b.Stmt, target)
		case *cast.Case:
			return in.execFrom(b.Stmt, target)
		case *cast.Default:
			return in.execFrom(b.Stmt, target)
		case *cast.If:
			if containsStmt(b.Then, target) {
				return in.execFrom(b.Then, target)
			}
			if b.Else != nil {
				return in.execFrom(b.Else, target)
			}
		}
	}
	return flowNone, nil
}

func (in *Interp) execBlockFrom(blk *cast.Compound, target cast.Stmt) (Ctrl, error) {
	f := in.curFrame()
	f.pushBlock()
	defer in.popBlock(f)
	for _, s := range blk.List {
		if ds, ok := s.(*cast.DeclStmt); ok {
			for _, d := range ds.Decls {
				if err := in.allocLocal(d); err != nil {
					return flowNone, err
				}
			}
		}
	}
	started := false
	i := 0
	resume := ""
	for i < len(blk.List) {
		s := blk.List[i]
		var c Ctrl
		var err error
		switch {
		case resume != "":
			c, err = in.execResume(s, resume)
			resume = ""
			started = true
		case !started && s == target:
			started = true
			c, err = in.exec(s)
		case !started && containsStmt(s, target):
			started = true
			c, err = in.execFrom(s, target)
		case !started:
			i++
			continue
		default:
			c, err = in.exec(s)
		}
		if err != nil {
			return flowNone, err
		}
		if c.Kind == CtrlGoto {
			idx := -1
			for j, inner := range blk.List {
				if containsLabel(inner, c.Label) {
					idx = j
					break
				}
			}
			if idx < 0 {
				return c, nil
			}
			i = idx
			resume = c.Label
			continue
		}
		if c.Kind != CtrlNone {
			return c, nil
		}
		i++
	}
	return flowNone, nil
}

// containsStmt reports whether target occurs in the subtree of s.
func containsStmt(s, target cast.Stmt) bool {
	if s == target {
		return true
	}
	switch s := s.(type) {
	case *cast.Label:
		return containsStmt(s.Stmt, target)
	case *cast.Case:
		return containsStmt(s.Stmt, target)
	case *cast.Default:
		return containsStmt(s.Stmt, target)
	case *cast.Compound:
		for _, inner := range s.List {
			if containsStmt(inner, target) {
				return true
			}
		}
	case *cast.If:
		if containsStmt(s.Then, target) {
			return true
		}
		if s.Else != nil {
			return containsStmt(s.Else, target)
		}
	case *cast.While:
		return containsStmt(s.Body, target)
	case *cast.DoWhile:
		return containsStmt(s.Body, target)
	case *cast.For:
		return containsStmt(s.Body, target)
	}
	return false
}

// ---------- declarations ----------

// allocLocal begins the lifetime of an automatic object at block entry.
// Statics, externs, VLAs, and functions are handled at declaration
// execution instead.
func (in *Interp) allocLocal(d *cast.Decl) error {
	if d.Sym == nil || d.Sym.Kind != cast.SymObject {
		return nil
	}
	if d.Storage == cast.SStatic || d.Storage == cast.SExtern || d.Type.VLA {
		return nil
	}
	if !d.Type.IsComplete() {
		return in.ubError(ub.Catalog[0], d.P, "Object %q has incomplete type %s", d.Name, d.Type)
	}
	size := in.model.Size(d.Type)
	o, err := in.store.Alloc(mem.ObjAuto, size, d.Name, d.Type)
	if err != nil {
		return err
	}
	// Re-entering the block (a loop iteration) rebinds the slot: the old
	// object was killed at block exit.
	in.curFrame().locals[d.Sym.Slot] = o.ID
	in.trackBlockObj(o.ID)
	in.markQualRanges(o.ID, 0, d.Type)
	return nil
}

// execDecl runs a declaration statement: VLA sizing, static-local
// initialization-once, and initializers.
func (in *Interp) execDecl(d *cast.Decl) error {
	if d.Sym == nil || d.Sym.Kind != cast.SymObject {
		return nil
	}
	f := in.curFrame()
	switch {
	case d.Storage == cast.SStatic:
		id, done := in.statics[d]
		if !done {
			size := in.model.Size(d.Type)
			o, err := in.store.Alloc(mem.ObjStatic, size, d.Name, d.Type)
			if err != nil {
				return err
			}
			o.Zero(0, size)
			in.statics[d] = o.ID
			id = o.ID
			in.markQualRanges(id, 0, d.Type)
			if len(d.Plan) > 0 {
				if err := in.runInitPlan(id, d.Type, d.Plan, false); err != nil {
					return err
				}
			}
		}
		f.locals[d.Sym.Slot] = id
		return nil

	case d.Storage == cast.SExtern:
		return nil // refers to the file-scope object

	case d.Type.VLA:
		var n int64 = -1
		if d.VLASize != nil {
			v, err := in.eval(d.VLASize)
			if err != nil {
				return err
			}
			v, err = in.usable(v, d.P)
			if err != nil {
				return err
			}
			iv, ok := v.(mem.Int)
			if !ok {
				return in.ubError(ub.VLANotPositive, d.P, "VLA size is not an integer")
			}
			n = int64(iv.Bits)
			if !iv.T.IsSigned(in.model) {
				n = int64(iv.Bits)
			}
		}
		// C11 §6.7.6.2:5: the size shall be greater than zero.
		if n <= 0 {
			if in.prof.VLASize {
				return in.ubError(ub.VLANotPositive, d.P,
					"Variable length array %q declared with non-positive size %d", d.Name, n)
			}
			n = 0 // fallback: a zero-sized slab of stack
		} else if in.prof.VLASize {
			in.obsCheckPass(ub.VLANotPositive, d.P)
		}
		esize := in.model.Size(d.Type.Elem)
		o, err := in.store.Alloc(mem.ObjAuto, n*esize, d.Name, d.Type)
		if err != nil {
			return err
		}
		f.locals[d.Sym.Slot] = o.ID
		in.trackBlockObj(o.ID)
		return nil
	}

	// Ordinary automatic object: already allocated at block entry; run
	// the initializer now.
	id := f.locals[d.Sym.Slot]
	if id == 0 {
		if err := in.allocLocal(d); err != nil {
			return err
		}
		id = f.locals[d.Sym.Slot]
	}
	if d.Init == nil {
		return nil // stays indeterminate (§4.3.3)
	}
	return in.runInitPlan(id, d.Type, d.Plan, d.ZeroFill)
}

// ---------- calls ----------

func (in *Interp) evalCall(e *cast.Call) (mem.Value, error) {
	// The function designator and the arguments are evaluated in an
	// unspecified order (§2.5.2's setDenom example).
	n := len(e.Args) + 1
	var vbuf [8]mem.Value // the operands of calls with up to 7 arguments
	var vals []mem.Value
	if n <= len(vbuf) {
		vals = vbuf[:n]
	} else {
		vals = make([]mem.Value, n)
	}
	var buf [8]int // the order for up to 8 operands, on the stack
	for _, which := range in.order(buf[:0], n) {
		var err error
		if which == 0 {
			vals[0], err = in.eval(e.Fn)
		} else {
			vals[which], err = in.eval(e.Args[which-1])
		}
		if err != nil {
			return nil, err
		}
		if n > 1 {
			in.OperandDone()
		}
	}
	fd, args, v, err := in.resolveCall(e, vals)
	if fd == nil {
		return v, err
	}
	return in.callUser(fd, args, e.P)
}

// CallFunc invokes a user-defined function with already-converted
// arguments. Each engine supplies its own: the tree walker's executes the
// AST body, the bytecode VM's dispatches into compiled code.
type CallFunc func(fd *cast.FuncDef, args []mem.Value, pos token.Pos) (mem.Value, error)

// FinishCall performs the engine-independent tail of a call expression:
// the post-argument sequence point, designator checks, builtin dispatch,
// call-compatibility checks (§6.5.2.2), argument conversion, and finally
// the user-function invocation through call. vals is the evaluated
// designator (index 0) followed by the evaluated arguments, in source
// order.
func (in *Interp) FinishCall(e *cast.Call, vals []mem.Value, call CallFunc) (mem.Value, error) {
	fd, args, v, err := in.resolveCall(e, vals)
	if fd == nil {
		return v, err
	}
	return call(fd, args, e.P)
}

// resolveCall is FinishCall up to the user-function invocation: it returns
// the called definition and its converted arguments, or, with a nil fd,
// the call's value or error when a builtin ran or a check failed. The
// arguments are a slice of vals, which never escapes, so a caller may
// pass stack storage.
func (in *Interp) resolveCall(e *cast.Call, vals []mem.Value) (*cast.FuncDef, []mem.Value, mem.Value, error) {
	// Sequence point after evaluating designator and arguments
	// (C11 §6.5.2.2:10).
	in.seqPoint()

	fnv, err := in.usable(vals[0], e.P)
	if err != nil {
		return nil, nil, nil, err
	}
	fp, ok := fnv.(mem.Ptr)
	if !ok {
		return nil, nil, nil, in.ubError(ub.InvalidDeref, e.P, "Calling a non-function value")
	}
	if fp.IsNull() {
		return nil, nil, nil, in.ubError(ub.InvalidDeref, e.P, "Calling a null function pointer")
	}
	name, isFunc := in.objFunc[fp.Base]
	if !isFunc {
		return nil, nil, nil, in.ubError(ub.BadFuncPtrCall, e.P, "Calling a pointer that does not point to a function")
	}
	if err := in.observe(spec.Event{Kind: spec.EvCall, Pos: e.P, Name: name}); err != nil {
		return nil, nil, nil, err
	}
	args := vals[1:]
	for i := range args {
		if args[i], err = in.usable(args[i], e.P); err != nil {
			// Raw bytes may be passed if they are concrete; usable
			// already converted those.
			return nil, nil, nil, err
		}
	}

	// Builtin library function?
	if bi, isBuiltin := builtins[name]; isBuiltin {
		if _, userDefined := in.prog.Funcs[name]; !userDefined {
			in.obsBuiltin(name, e.P)
			// A builtin is called through a func value, which the
			// compiler must assume keeps its arguments: a copy keeps
			// vals on the caller's stack.
			v, berr := bi(in, slices.Clone(args), e)
			if berr == errSilentOOB {
				// Unwatched out-of-bounds library access: the operation
				// "succeeded" against neighboring memory.
				if e.T == nil || e.T.Kind == ctypes.Void {
					return nil, nil, mem.Void{}, nil
				}
				return nil, nil, in.zeroOf(e.T), nil
			}
			return nil, nil, v, berr
		}
	}

	fd, defined := in.prog.Funcs[name]
	if !defined {
		return nil, nil, nil, in.ubError(ub.Catalog[82], e.P,
			"Calling undefined function %q", name)
	}

	// Dynamic call compatibility (C11 §6.5.2.2:9 and §6.3.2.3:8): the
	// call-site type must be compatible with the definition.
	callType := e.Fn.Type()
	if callType.Kind == ctypes.Ptr {
		callType = callType.Elem
	}
	if in.prof.CallMismatch && callType.Kind == ctypes.Func {
		if !ctypes.Compatible(callType, fd.Type) {
			return nil, nil, nil, in.ubError(ub.BadFuncPtrCall, e.P,
				"Calling function %q through an incompatible type (%s, defined as %s)",
				name, callType, fd.Type)
		}
		in.obsCheckPass(ub.BadFuncPtrCall, e.P)
	}
	// Argument count against the actual definition (old-style calls
	// bypass static checking; C11 §6.5.2.2:6).
	if len(args) != len(fd.Params) && !fd.Type.Variadic {
		if in.prof.CallMismatch {
			return nil, nil, nil, in.ubError(ub.BadCallNoProto, e.P,
				"Function %q called with %d arguments but defined with %d",
				name, len(args), len(fd.Params))
		}
		// Fallback: extra arguments vanish; missing parameters are
		// whatever was in the registers — indeterminate.
		if len(args) > len(fd.Params) {
			args = args[:len(fd.Params)]
		}
	}
	// Old-style calls also require the promoted argument types to be
	// compatible with the parameters (C11 §6.5.2.2:6).
	if in.prof.CallMismatch && callType.Kind == ctypes.Func && callType.OldStyle {
		for i, p := range fd.Params {
			if i >= len(args) {
				break
			}
			at := in.model.Promote(args[i].CType().Unqualified())
			pt := in.model.Promote(p.Type.Unqualified())
			if at.Kind == ctypes.Ptr && pt.Kind == ctypes.Ptr {
				continue // pointer representation matches
			}
			if !ctypes.Compatible(at, pt) {
				return nil, nil, nil, in.ubError(ub.BadCallArgs, e.P,
					"Function %q called without a prototype with argument %d of type %s (parameter has type %s)",
					name, i+1, at, p.Type)
			}
		}
	}
	// Convert arguments to parameter types.
	for i, p := range fd.Params {
		if i >= len(args) {
			break // missing argument: parameter stays indeterminate
		}
		cv, err := in.convertForStore(args[i], p.Type, e.P)
		if err != nil {
			return nil, nil, nil, err
		}
		args[i] = cv
	}
	return fd, args, nil, nil
}

// callUser invokes a user-defined function with converted arguments,
// executing its body by walking the AST.
func (in *Interp) callUser(fd *cast.FuncDef, args []mem.Value, pos token.Pos) (mem.Value, error) {
	return in.InvokeUser(fd, args, pos, func() (Ctrl, error) { return in.exec(fd.Body) })
}

// InvokeUser is the engine-independent function-call protocol: the call
// depth budget, frame/sequence-state push and pop, parameter object
// allocation, block-lifetime teardown, and the mapping from the body's
// control signal to the call's value (§6.9.1). body executes fd's body —
// the tree walker passes in.exec(fd.Body), the VM its compiled code.
func (in *Interp) InvokeUser(fd *cast.FuncDef, args []mem.Value, pos token.Pos, body func() (Ctrl, error)) (mem.Value, error) {
	if len(in.frames) >= in.budget.MaxCallDepth {
		return nil, &BudgetError{Msg: "call depth exceeded in " + fd.Name}
	}
	f := in.pushFrame(fd)
	in.pushSeq()
	defer func() {
		in.popFrame()
		in.seq = in.seq[:len(in.seq)-1]
	}()

	// Parameters are objects with automatic storage duration.
	for i, p := range fd.Params {
		size := in.model.Size(p.Type)
		o, err := in.store.Alloc(mem.ObjAuto, size, p.Name, p.Type)
		if err != nil {
			return nil, err
		}
		if i < len(args) {
			in.storeRaw(o, 0, p.Type, args[i])
		}
		f.locals[p.Slot] = o.ID
		in.trackBlockObj(o.ID)
		in.markQualRanges(o.ID, 0, p.Type)
	}

	c, err := body()
	if err != nil {
		return nil, err
	}
	ret := fd.Type.Elem
	switch c.Kind {
	case CtrlReturn:
		if c.Value == nil {
			if ret.Kind == ctypes.Void {
				return mem.Void{}, nil
			}
			return noReturn{T: ret}, nil
		}
		return c.Value, nil
	case CtrlNone:
		// Fell off the end.
		if ret.Kind == ctypes.Void {
			return mem.Void{}, nil
		}
		if fd.Name == "main" {
			// C11 §5.1.2.2.3: reaching the } of main returns 0.
			return mem.Int{T: ctypes.TInt, Bits: 0}, nil
		}
		return noReturn{T: ret}, nil
	case CtrlGoto:
		return nil, in.ubError(ub.Catalog[0], pos, "Goto to label %q escaped function %q", c.Label, fd.Name)
	default:
		return nil, in.ubError(ub.Catalog[0], pos, "Control signal escaped function %q", fd.Name)
	}
}
