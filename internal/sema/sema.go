// Package sema type-checks parsed translation units, resolves identifiers
// to symbols, and detects the statically detectable undefined behaviors
// cataloged in internal/ub.
//
// The paper classifies 92 of C's 221 undefined behaviors as statically
// detectable (§5.2.1); this checker covers the statically detectable core
// behaviors its test suite exercises (zero-length arrays, qualified
// function types, void value use, return mismatches, and more). Statically
// undefined constructs are reported as diagnostics, not hard errors,
// because real compilers accept most of them — the point of the paper is
// that a checker must flag them anyway.
package sema

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/scope"
	"repro/internal/token"
	"repro/internal/ub"
)

// Error is a semantic (constraint) error.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// Program is a checked translation unit ready for interpretation.
//
// Immutability contract: once Check returns, a Program — including the
// AST, symbols, and types it points to — is never written again. Programs
// checked after one prelude (CheckAfter) share the prelude's declarations,
// symbols and types, so a write to any node would reach every program
// that shares it, on any goroutine; checking writes only the unit's own
// copies of them (checker.own). The
// interpreter (interp.Run), the order search (search.Explore), and the
// abstract interpreter (absint.Analyze) keep all per-run state in their
// own structures, keyed by AST pointers where needed, and only read the
// Program. One *Program may therefore be shared freely across concurrent
// analyses; driver.Cache and the parallel runner rely on this
// (enforced by tools.TestConcurrentSharedProgram under -race). The one
// field written after Check is the function-designator table, which
// Designators builds once under a sync.Once before any reader sees it.
type Program struct {
	Model *ctypes.Model
	// File is the translation unit's source file name — the unit label
	// the pipeline's fault-containment layer attaches to contained
	// panics and injected faults.
	File    string
	Unit    *cast.TranslationUnit
	Globals []*cast.Decl // file-scope objects, in definition order
	Funcs   map[string]*cast.FuncDef
	Symbols map[string]*cast.Symbol // file-scope symbols by name
	// StaticUB collects statically detected undefined behaviors.
	StaticUB []*ub.Error

	funcTabOnce sync.Once
	funcTab     FuncTable
}

// checker carries the state of one checking pass.
type checker struct {
	model  *ctypes.Model
	prog   *Program
	pre    *Prelude
	scopes scope.Table[*cast.Symbol]

	// Current function context.
	curFunc   *cast.FuncDef
	loopDepth int
	switches  []*cast.Switch
	labels    map[string]*cast.Label // made at the function's first label
	gotos     []*cast.Goto
	// slots counts the frame slots handed out in the current function:
	// parameters and block-scope objects, numbered from 1 (see
	// cast.Symbol.Slot).
	slots          int
	sawReturnValue bool
	sawPlainReturn bool
}

// Prelude is the checker's state after the declarations of a unit's
// leading includes (see parser.Prelude): their file-scope symbols and
// what checking them produced. It is only read: a unit that uses or
// redeclares one of its symbols checks a copy of its own (checker.own).
type Prelude struct {
	unit     *cast.TranslationUnit
	scope    scope.Table[*cast.Symbol]
	symbols  map[string]*cast.Symbol
	globals  []*cast.Decl
	staticUB []*ub.Error
}

// noPrelude is the empty prelude Check continues.
var noPrelude = &Prelude{unit: &cast.TranslationUnit{}, symbols: map[string]*cast.Symbol{}}

// Check type-checks tu under model.
func Check(tu *cast.TranslationUnit, model *ctypes.Model) (*Program, error) {
	return CheckAfter(noPrelude, tu, model)
}

// CheckPrelude checks tu, the declarations of a unit's leading includes,
// into a prelude.
func CheckPrelude(tu *cast.TranslationUnit, model *ctypes.Model) (*Prelude, error) {
	if len(tu.Order) == 0 {
		return noPrelude, nil
	}
	c, err := checkUnit(noPrelude, tu, model)
	if err != nil {
		return nil, err
	}
	p := c.prog
	return &Prelude{unit: tu, scope: c.scopes, symbols: p.Symbols, globals: p.Globals, staticUB: p.StaticUB}, nil
}

// CheckAfter type-checks tu, whose declarations begin with those of pre's
// unit (parser.ParseAfter), continuing from pre. The program is the one
// Check makes of the whole unit; the prelude's declarations it does not
// write, it shares.
func CheckAfter(pre *Prelude, tu *cast.TranslationUnit, model *ctypes.Model) (*Program, error) {
	c, err := checkUnit(pre, tu, model)
	if err != nil {
		return nil, err
	}
	return c.prog, nil
}

// checkUnit checks the declarations of tu after pre's, leaving the file
// scope open.
func checkUnit(pre *Prelude, tu *cast.TranslationUnit, model *ctypes.Model) (*checker, error) {
	prog := &Program{
		Model:    model,
		File:     tu.File,
		Unit:     tu,
		Globals:  slices.Clone(pre.globals),
		Funcs:    make(map[string]*cast.FuncDef),
		Symbols:  maps.Clone(pre.symbols),
		StaticUB: slices.Clone(pre.staticUB),
	}
	c := &checker{model: model, prog: prog, pre: pre, scopes: scope.Over(&pre.scope)}
	c.scopes.Push()
	for _, n := range tu.Order[len(pre.unit.Order):] {
		switch n := n.(type) {
		case *cast.Decl:
			if err := c.fileScopeDecl(n); err != nil {
				return nil, err
			}
		case *cast.FuncDef:
			if err := c.funcDef(n); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

// own returns the unit's own copy of sym if the prelude declared it,
// making the copy at the unit's first use or redeclaration of sym: both
// write the symbol (Referenced, a completed type, a definition), and the
// prelude's is shared. The prelude's declarations of sym are copied into
// the unit's slices too, so the program has the shape a check of the
// unit's whole text gives it.
func (c *checker) own(sym *cast.Symbol) *cast.Symbol {
	if c.pre.symbols[sym.Name] != sym {
		return sym
	}
	if cp := c.prog.Symbols[sym.Name]; cp != sym {
		return cp
	}
	cp := new(cast.Symbol)
	*cp = *sym
	c.prog.Symbols[sym.Name] = cp
	pre, tu := c.pre.unit, c.prog.Unit
	for i, n := range tu.Order[:len(pre.Order)] {
		d, ok := n.(*cast.Decl)
		if !ok || d.Sym != sym {
			continue
		}
		dc := new(cast.Decl)
		*dc = *d
		dc.Sym = cp
		tu.Order[i] = dc
		replace(tu.Decls[:len(pre.Decls)], d, dc)
		replace(c.prog.Globals[:len(c.pre.globals)], d, dc)
	}
	return cp
}

// replace replaces each old in list with new.
func replace(list []*cast.Decl, old, new *cast.Decl) {
	for i, d := range list {
		if d == old {
			list[i] = new
		}
	}
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// sized diagnoses types whose storage layout cannot be computed. A type can
// pass IsComplete yet still have no layout — a struct with a flexible array
// member, or an array of such structs — and every declaration or access that
// needs storage must reject it here rather than crash in the interpreter.
func (c *checker) sized(t *ctypes.Type, pos token.Pos, what string) error {
	if _, err := c.model.SizeOf(t); err != nil {
		return c.errorf(pos, "%s: %v", what, err)
	}
	return nil
}

// sizedDecl is sized for a declaration of a kind ("variable", "parameter")
// named name; the message is formatted only when the check fails.
func (c *checker) sizedDecl(t *ctypes.Type, pos token.Pos, kind, name string) error {
	if _, err := c.model.SizeOf(t); err != nil {
		if t.Kind == ctypes.Array && errors.Is(err, ctypes.ErrTooLarge) {
			return c.errorf(pos, "size of array %q is too large", name)
		}
		return c.errorf(pos, "%s %q: %v", kind, name, err)
	}
	return nil
}

func (c *checker) staticUB(b *ub.Behavior, pos token.Pos, format string, args ...any) {
	fn := ""
	if c.curFunc != nil {
		fn = c.curFunc.Name
	} else {
		fn = "<file scope>"
	}
	c.prog.StaticUB = append(c.prog.StaticUB, ub.New(b, pos, fn, format, args...))
}

// ---------- scopes ----------

func (c *checker) declare(sym *cast.Symbol) { c.scopes.Declare(sym.Name, sym) }

// ---------- file-scope declarations ----------

func (c *checker) fileScopeDecl(d *cast.Decl) error {
	if err := c.vlaSize(d); err != nil || d.Type.VLA {
		return c.errorf(d.P, "variable length array at file scope")
	}
	c.checkDeclType(d)
	kind := cast.SymObject
	if d.Type.Kind == ctypes.Func {
		kind = cast.SymFunc
	}
	if kind == cast.SymObject && d.Storage != cast.SExtern && d.Type.IsComplete() {
		if err := c.sizedDecl(d.Type, d.P, "variable", d.Name); err != nil {
			return err
		}
	}
	// At file scope the innermost scope is the file's.
	if existing, ok := c.scopes.LookupLocal(d.Name); ok {
		existing = c.own(existing)
		// Redeclaration: types must be compatible.
		if !ctypes.Compatible(existing.Type, d.Type) {
			return c.errorf(d.P, "conflicting types for %q (%s vs %s)", d.Name, existing.Type, d.Type)
		}
		// Array completion: int a[]; then int a[10];
		if existing.Type.Kind == ctypes.Array && existing.Type.ArrayLen < 0 && d.Type.ArrayLen >= 0 {
			existing.Type = d.Type
		}
		// Adopt a prototype over an old-style declaration.
		if existing.Type.Kind == ctypes.Func && existing.Type.OldStyle && !d.Type.OldStyle {
			existing.Type = d.Type
		}
		d.Sym = existing
		if d.Init != nil {
			if err := c.checkInit(d); err != nil {
				return err
			}
			c.prog.Globals = append(c.prog.Globals, d)
		}
		return nil
	}
	sym := &cast.Symbol{Name: d.Name, Type: d.Type, Kind: kind, Storage: d.Storage, Pos: d.P}
	d.Sym = sym
	c.declare(sym)
	c.prog.Symbols[d.Name] = sym
	if kind == cast.SymObject {
		if d.Init != nil {
			if err := c.checkInit(d); err != nil {
				return err
			}
		}
		c.prog.Globals = append(c.prog.Globals, d)
	}
	return nil
}

// checkDeclType reports statically undefined properties of a declared type.
func (c *checker) checkDeclType(d *cast.Decl) {
	c.checkTypeUB(d.Type, d.P, d.Name)
}

func (c *checker) checkTypeUB(t *ctypes.Type, pos token.Pos, name string) {
	seen := map[*ctypes.Type]bool{}
	var walk func(t *ctypes.Type)
	walk = func(t *ctypes.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t.Kind {
		case ctypes.Array:
			// C11 §6.7.6.2: array length must be greater than zero.
			if n := t.NegativeLen(); n < 0 {
				c.staticUB(ub.ArrayNotPositive, pos,
					"Array %q declared with negative length %d", name, n)
			} else if t.ArrayLen == 0 && !t.VLA {
				c.staticUB(ub.ArrayNotPositive, pos,
					"Array %q declared with zero length", name)
			}
			walk(t.Elem)
		case ctypes.Ptr:
			// A parameter declared as an array of negative length.
			if n := t.NegativeLen(); n < 0 {
				c.staticUB(ub.ArrayNotPositive, pos,
					"Parameter array of %q declared with negative length %d", name, n)
			}
			walk(t.Elem)
		case ctypes.Func:
			// C11 §6.7.3:9: qualified function types are undefined.
			if t.Qual != 0 {
				c.staticUB(ub.QualifiedFuncType, pos,
					"Function type specified with type qualifier '%s'", t.Qual)
			}
			walk(t.Elem)
			for _, p := range t.Params {
				walk(p.Type)
			}
		}
	}
	walk(t)
}

// ---------- function definitions ----------

func (c *checker) funcDef(fd *cast.FuncDef) error {
	c.checkTypeUB(fd.Type, fd.P, fd.Name)
	if prev, ok := c.scopes.LookupLocal(fd.Name); ok {
		prev = c.own(prev)
		if !ctypes.Compatible(prev.Type, fd.Type) {
			return c.errorf(fd.P, "conflicting types for function %q", fd.Name)
		}
		if prev.FuncDef != nil {
			return c.errorf(fd.P, "redefinition of function %q", fd.Name)
		}
		prev.Type = fd.Type
		prev.FuncDef = fd
		fd.Sym = prev
	} else {
		sym := &cast.Symbol{Name: fd.Name, Type: fd.Type, Kind: cast.SymFunc, Pos: fd.P, FuncDef: fd}
		fd.Sym = sym
		c.declare(sym)
		c.prog.Symbols[fd.Name] = sym
	}
	c.prog.Funcs[fd.Name] = fd

	c.curFunc = fd
	c.labels = nil
	c.gotos = nil
	c.slots = 0
	c.sawReturnValue = false
	c.sawPlainReturn = false
	defer func() {
		c.curFunc = nil
	}()

	c.scopes.Push()
	for i, param := range fd.Params {
		if param.Name == "" {
			return c.errorf(fd.P, "parameter %d of %q has no name", i+1, fd.Name)
		}
		if !param.Type.IsComplete() {
			return c.errorf(fd.P, "parameter %q has incomplete type %s", param.Name, param.Type)
		}
		if err := c.sizedDecl(param.Type, fd.P, "parameter", param.Name); err != nil {
			return err
		}
		c.slots++
		param.Slot = c.slots
		c.declare(param)
	}
	if err := c.stmts(fd.Body.List); err != nil {
		return err
	}
	c.scopes.Pop()
	fd.NumSlots = c.slots

	fd.Labels = c.labels
	for _, g := range c.gotos {
		lbl, ok := c.labels[g.Name]
		if !ok {
			return c.errorf(g.P, "goto undefined label %q", g.Name)
		}
		c.checkJumpVLA(fd.Body, g, lbl, g.P)
	}
	// Return diagnostics (static classification per the paper §5.2.1).
	ret := fd.Type.Elem
	if ret.Kind == ctypes.Void && c.sawReturnValue {
		c.staticUB(ub.ReturnVoidValue, fd.P,
			"Return with a value in function %q returning void", fd.Name)
	}
	return nil
}

// checkJumpVLA flags a jump into the scope of a variably modified
// declaration (C11 §6.8.6.1:1 for goto, §6.8.4.2:2 for switch).
func (c *checker) checkJumpVLA(root, jump, target cast.Stmt, pos token.Pos) {
	if _, d := enteredVLA(root, jump, target); d != nil {
		c.staticUB(ub.GotoIntoVLAScope, pos,
			"Jump into the scope of variably modified %q", d.Name)
	}
}

// enteredVLA reports whether target is in s and, innermost block first,
// the VLA whose scope a jump from jump to target enters without executing
// its declaration: one that a block on the path declares before the
// statement leading to target, where the block does not contain jump.
func enteredVLA(s, jump, target cast.Stmt) (found bool, vla *cast.Decl) {
	if s == target {
		return true, nil
	}
	switch s := s.(type) {
	case *cast.Compound:
		for i, inner := range s.List {
			if found, vla = enteredVLA(inner, jump, target); found {
				if vla == nil && !cast.Contains(s, jump) {
					vla = firstVLA(s.List[:i])
				}
				return true, vla
			}
		}
	case *cast.Label:
		return enteredVLA(s.Stmt, jump, target)
	case *cast.Case:
		return enteredVLA(s.Stmt, jump, target)
	case *cast.Default:
		return enteredVLA(s.Stmt, jump, target)
	case *cast.If:
		if found, vla = enteredVLA(s.Then, jump, target); found || s.Else == nil {
			return found, vla
		}
		return enteredVLA(s.Else, jump, target)
	case *cast.While:
		return enteredVLA(s.Body, jump, target)
	case *cast.DoWhile:
		return enteredVLA(s.Body, jump, target)
	case *cast.For:
		// The init clause declares before the body, in a block of its
		// own (C11 §6.8.5:5).
		if found, vla = enteredVLA(s.Body, jump, target); found && vla == nil && !cast.Contains(s, jump) {
			vla = declVLA(s.Init)
		}
		return found, vla
	case *cast.Switch:
		return enteredVLA(s.Body, jump, target)
	}
	return false, nil
}

// firstVLA returns the first variably modified declaration in list.
func firstVLA(list []cast.Stmt) *cast.Decl {
	for _, item := range list {
		if d := declVLA(item); d != nil {
			return d
		}
	}
	return nil
}

// declVLA returns the first variably modified declaration s makes.
func declVLA(s cast.Stmt) *cast.Decl {
	if ds, isDecl := s.(*cast.DeclStmt); isDecl {
		for _, d := range ds.Decls {
			if d.Type != nil && d.Type.VLA {
				return d
			}
		}
	}
	return nil
}

// vlaSize types the size expression of d's variable array, if any, and
// when it is an integer constant expression after all (such as sizeof of
// a non-VLA operand, C11 §6.6:6, which the parser cannot size without
// types) gives d the fixed array type.
func (c *checker) vlaSize(d *cast.Decl) error {
	if !d.Type.VLA || d.VLASize == nil {
		return nil
	}
	if _, err := c.expr(d.VLASize); err != nil {
		return err
	}
	if !d.VLASize.Type().IsInteger() {
		return c.errorf(d.P, "VLA size has non-integer type %s", d.VLASize.Type())
	}
	if n, err := cast.FoldInt(c.model, d.VLASize); err == nil {
		d.Type = ctypes.ArrayOf(d.Type.Elem, n.Int64()).Qualified(d.Type.Qual)
		d.VLASize = nil
	}
	return nil
}

// localDecl checks a block-scope declaration.
func (c *checker) localDecl(d *cast.Decl) error {
	if err := c.vlaSize(d); err != nil {
		return err
	}
	c.checkDeclType(d)
	if d.Type.Kind == ctypes.Func {
		// Block-scope function declaration.
		sym := &cast.Symbol{Name: d.Name, Type: d.Type, Kind: cast.SymFunc, Storage: cast.SExtern, Pos: d.P}
		d.Sym = sym
		c.declare(sym)
		if _, ok := c.prog.Symbols[d.Name]; !ok {
			c.prog.Symbols[d.Name] = sym
		}
		return nil
	}
	if d.Type.VLA {
		if d.Init != nil {
			return c.errorf(d.P, "variable length array may not be initialized")
		}
	} else if !d.Type.IsComplete() && d.Init == nil && d.Storage != cast.SExtern {
		// `int a[];` at block scope without init is invalid.
		if !(d.Type.Kind == ctypes.Array && d.Type.ArrayLen < 0 && d.Init != nil) {
			return c.errorf(d.P, "variable %q has incomplete type %s", d.Name, d.Type)
		}
	} else if d.Type.IsComplete() && d.Storage != cast.SExtern {
		if err := c.sizedDecl(d.Type, d.P, "variable", d.Name); err != nil {
			return err
		}
	}
	sym := &cast.Symbol{Name: d.Name, Type: d.Type, Kind: cast.SymObject, Storage: d.Storage, Pos: d.P}
	if d.Storage != cast.SExtern {
		// Every block-scope object, static or automatic, gets its own
		// slot, so shadowed names never share one.
		c.slots++
		sym.Slot = c.slots
	}
	d.Sym = sym
	// The new declaration is in scope inside its own initializer
	// (C11 §6.2.1:7), so `int x = x;` reads the indeterminate new x —
	// exactly the UB the dynamic checker must catch.
	c.declare(sym)
	if d.Init != nil {
		if err := c.checkInit(d); err != nil {
			return err
		}
	}
	return nil
}
