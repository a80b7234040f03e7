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
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctypes"
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
// AST, symbols, and types it points to — is never written again. The
// interpreter (interp.Run), the order search (search.Explore), and the
// abstract interpreter (absint.Analyze) keep all per-run state in their
// own structures, keyed by AST pointers where needed, and only read the
// Program. One *Program may therefore be shared freely across concurrent
// analyses; driver.Cache and the parallel runner rely on this
// (enforced by tools.TestConcurrentSharedProgram under -race).
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
}

// checker carries the state of one checking pass.
type checker struct {
	model  *ctypes.Model
	prog   *Program
	scopes []map[string]*cast.Symbol

	// Current function context.
	curFunc   *cast.FuncDef
	loopDepth int
	switches  []*cast.Switch
	labels    map[string]*cast.Label
	gotos     []*cast.Goto
	// slots counts the frame slots handed out in the current function:
	// parameters and block-scope objects, numbered from 1 (see
	// cast.Symbol.Slot).
	slots int
	// vlaScopes tracks whether the current block has VLA declarations
	// (for the goto-into-VLA-scope check).
	sawReturnValue bool
	sawPlainReturn bool
}

// Check type-checks tu under model.
func Check(tu *cast.TranslationUnit, model *ctypes.Model) (*Program, error) {
	prog := &Program{
		Model:   model,
		File:    tu.File,
		Unit:    tu,
		Funcs:   make(map[string]*cast.FuncDef),
		Symbols: make(map[string]*cast.Symbol),
	}
	c := &checker{model: model, prog: prog}
	c.pushScope()
	for _, n := range tu.Order {
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
	c.popScope()
	return prog, nil
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

func (c *checker) pushScope() {
	c.scopes = append(c.scopes, make(map[string]*cast.Symbol))
}

func (c *checker) popScope() { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *checker) declare(sym *cast.Symbol) { c.scopes[len(c.scopes)-1][sym.Name] = sym }

func (c *checker) lookup(name string) (*cast.Symbol, bool) {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if s, ok := c.scopes[i][name]; ok {
			return s, true
		}
	}
	return nil, false
}

func (c *checker) atFileScope() bool { return len(c.scopes) == 1 }

// ---------- file-scope declarations ----------

func (c *checker) fileScopeDecl(d *cast.Decl) error {
	c.checkDeclType(d)
	if d.Type.VLA {
		return c.errorf(d.P, "variable length array at file scope")
	}
	kind := cast.SymObject
	if d.Type.Kind == ctypes.Func {
		kind = cast.SymFunc
	}
	if kind == cast.SymObject && d.Storage != cast.SExtern && d.Type.IsComplete() {
		if err := c.sized(d.Type, d.P, fmt.Sprintf("variable %q", d.Name)); err != nil {
			return err
		}
	}
	if existing, ok := c.scopes[0][d.Name]; ok {
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
			if t.ArrayLen == 0 && !t.VLA {
				c.staticUB(ub.ArrayNotPositive, pos,
					"Array %q declared with zero length", name)
			}
			if t.ArrayLen > 0 || t.ArrayLen < 0 {
				// negative constant lengths are rejected in the parser's
				// constant fold as huge positives; treat int overflowed
				// sizes as already reported.
			}
			walk(t.Elem)
		case ctypes.Ptr:
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
	if prev, ok := c.scopes[0][fd.Name]; ok {
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
	c.labels = make(map[string]*cast.Label)
	c.gotos = nil
	c.slots = 0
	c.sawReturnValue = false
	c.sawPlainReturn = false
	defer func() {
		c.curFunc = nil
	}()

	c.pushScope()
	for i, param := range fd.Params {
		if param.Name == "" {
			return c.errorf(fd.P, "parameter %d of %q has no name", i+1, fd.Name)
		}
		if !param.Type.IsComplete() {
			return c.errorf(fd.P, "parameter %q has incomplete type %s", param.Name, param.Type)
		}
		if err := c.sized(param.Type, fd.P, fmt.Sprintf("parameter %q", param.Name)); err != nil {
			return err
		}
		c.slots++
		param.Slot = c.slots
		c.declare(param)
	}
	if err := c.stmts(fd.Body.List); err != nil {
		return err
	}
	c.popScope()
	fd.NumSlots = c.slots

	fd.Labels = c.labels
	for _, g := range c.gotos {
		lbl, ok := c.labels[g.Name]
		if !ok {
			return c.errorf(g.P, "goto undefined label %q", g.Name)
		}
		c.checkGotoVLA(fd, g, lbl)
	}
	// Return diagnostics (static classification per the paper §5.2.1).
	ret := fd.Type.Elem
	if ret.Kind == ctypes.Void && c.sawReturnValue {
		c.staticUB(ub.ReturnVoidValue, fd.P,
			"Return with a value in function %q returning void", fd.Name)
	}
	return nil
}

// checkGotoVLA flags jumps into the scope of a variably modified
// declaration (C11 §6.8.6.1:1): if a block on the path to the label
// declares a VLA before the label, and the goto is outside that block, the
// jump enters the VLA's scope without executing its declaration.
func (c *checker) checkGotoVLA(fd *cast.FuncDef, g *cast.Goto, lbl *cast.Label) {
	var path []*cast.Compound
	if !compoundsTo(fd.Body, lbl, &path) {
		return
	}
	for _, blk := range path {
		if subtreeHas(blk, g) {
			continue // the goto is inside this block: no scope entry
		}
		// Does the block declare a VLA before the statement leading to
		// the label?
		for _, item := range blk.List {
			if subtreeHas(item, lbl) {
				break // reached the label's branch without a VLA first
			}
			if ds, isDecl := item.(*cast.DeclStmt); isDecl {
				for _, d := range ds.Decls {
					if d.Type != nil && d.Type.VLA {
						c.staticUB(ub.GotoIntoVLAScope, g.P,
							"Jump into the scope of variably modified %q", d.Name)
						return
					}
				}
			}
		}
	}
}

// compoundsTo records the compound blocks on the path from s to target.
func compoundsTo(s cast.Stmt, target cast.Stmt, path *[]*cast.Compound) bool {
	if s == target {
		return true
	}
	switch s := s.(type) {
	case *cast.Compound:
		for _, inner := range s.List {
			if compoundsTo(inner, target, path) {
				*path = append(*path, s)
				return true
			}
		}
	case *cast.Label:
		return compoundsTo(s.Stmt, target, path)
	case *cast.Case:
		return compoundsTo(s.Stmt, target, path)
	case *cast.Default:
		return compoundsTo(s.Stmt, target, path)
	case *cast.If:
		if compoundsTo(s.Then, target, path) {
			return true
		}
		if s.Else != nil {
			return compoundsTo(s.Else, target, path)
		}
	case *cast.While:
		return compoundsTo(s.Body, target, path)
	case *cast.DoWhile:
		return compoundsTo(s.Body, target, path)
	case *cast.For:
		return compoundsTo(s.Body, target, path)
	case *cast.Switch:
		return compoundsTo(s.Body, target, path)
	}
	return false
}

// subtreeHas reports whether node occurs in the statement subtree.
func subtreeHas(s cast.Stmt, node cast.Stmt) bool {
	if s == node {
		return true
	}
	switch s := s.(type) {
	case *cast.Compound:
		for _, inner := range s.List {
			if subtreeHas(inner, node) {
				return true
			}
		}
	case *cast.Label:
		return subtreeHas(s.Stmt, node)
	case *cast.Case:
		return subtreeHas(s.Stmt, node)
	case *cast.Default:
		return subtreeHas(s.Stmt, node)
	case *cast.If:
		if subtreeHas(s.Then, node) {
			return true
		}
		if s.Else != nil {
			return subtreeHas(s.Else, node)
		}
	case *cast.While:
		return subtreeHas(s.Body, node)
	case *cast.DoWhile:
		return subtreeHas(s.Body, node)
	case *cast.For:
		return subtreeHas(s.Body, node)
	case *cast.Switch:
		return subtreeHas(s.Body, node)
	}
	return false
}

// localDecl checks a block-scope declaration.
func (c *checker) localDecl(d *cast.Decl) error {
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
		if d.VLASize != nil {
			if _, err := c.expr(d.VLASize); err != nil {
				return err
			}
			if !d.VLASize.Type().IsInteger() {
				return c.errorf(d.P, "VLA size has non-integer type %s", d.VLASize.Type())
			}
		}
		if d.Init != nil {
			return c.errorf(d.P, "variable length array may not be initialized")
		}
	} else if !d.Type.IsComplete() && d.Init == nil && d.Storage != cast.SExtern {
		// `int a[];` at block scope without init is invalid.
		if !(d.Type.Kind == ctypes.Array && d.Type.ArrayLen < 0 && d.Init != nil) {
			return c.errorf(d.P, "variable %q has incomplete type %s", d.Name, d.Type)
		}
	} else if d.Type.IsComplete() && d.Storage != cast.SExtern {
		if err := c.sized(d.Type, d.P, fmt.Sprintf("variable %q", d.Name)); err != nil {
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
