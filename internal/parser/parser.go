// Package parser implements a recursive-descent parser for C99/C11
// translation units (the freestanding language subset plus the library
// declarations our headers provide).
//
// C's grammar is not context-free: `T * x;` parses differently depending on
// whether T names a type. The parser therefore tracks declarations —
// typedef names, enum constants, and ordinary identifiers that shadow them —
// in a scope stack, and resolves struct/union/enum tags while parsing.
// Expression types are NOT computed here; that is internal/sema's job.
package parser

import (
	"errors"
	"fmt"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/lexer"
	"repro/internal/scope"
	"repro/internal/token"
)

// Error is a parse error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// nameKind classifies what an identifier currently means in scope.
type nameKind int

const (
	nameOrdinary nameKind = iota // object, function, parameter
	nameTypedef
	nameEnumConst
)

type nameInfo struct {
	kind nameKind
	typ  *ctypes.Type // typedef target
	val  int64        // enum constant value
}

// Parser parses one translation unit. It reads tokens from the lexer
// as it goes and keeps only the current token and the one after it: the
// grammar needs one token of lookahead and never backtracks.
type Parser struct {
	lx    lexer.Lexer
	tok   token.Token // current token
	ahead token.Token // the token after it
	// last is the position of the last token read; the EOF token
	// carries it.
	last token.Pos
	// done is set once the lexer reached the end of its input or failed;
	// lexErr is its error, which Parse reports over any parse error.
	done   bool
	lexErr error
	model  *ctypes.Model
	names  scope.Table[nameInfo]
	tags   scope.Table[*ctypes.Type] // struct/union/enum tags
	// ops is the derivation stack declarators build their types on.
	ops  []declOp
	file string
	// pendingVLA holds the size expression of the most recently parsed
	// declarator's variable array dimension; consumers take and clear it.
	pendingVLA cast.Expr
	// pre is the prelude the unit continues; tagged records that a
	// struct, union or enum specifier was parsed.
	pre    *Prelude
	tagged bool
}

// Prelude is the parser's state after the text a unit's leading includes
// preprocess to (see cpp.Prelude): the declarations parsed, the names
// they bind and where the lexer stands. It is only read, so the units
// that start with the same includes share it; ParseAfter continues from
// it.
type Prelude struct {
	unit  *cast.TranslationUnit
	names scope.Table[nameInfo]
	// end is the lexer's position at the end of the text, last the last
	// token's; both are invalid for an empty text, where a unit starts
	// at its own first line.
	end, last token.Pos
}

// Unit is the prelude's translation unit: the declarations parsed.
func (p *Prelude) Unit() *cast.TranslationUnit { return p.unit }

// noPrelude is the empty prelude Parse continues.
var noPrelude = &Prelude{unit: &cast.TranslationUnit{}}

// Parse parses src (already preprocessed) into a translation unit. A
// lexical error anywhere in src is reported in preference to a parse
// error.
func Parse(src, file string, model *ctypes.Model) (*cast.TranslationUnit, error) {
	return ParseAfter(noPrelude, src, file, model)
}

// ParsePrelude parses src, the text a unit's leading includes preprocess
// to, into a prelude. A prelude holds no struct, union or enum type, whose
// completion or layout a unit would write, and no function definition.
func ParsePrelude(src string, model *ctypes.Model) (*Prelude, error) {
	if src == "" {
		return noPrelude, nil
	}
	p := newParser(noPrelude, src, "", model)
	tu, err := p.finish(p.TranslationUnit())
	switch {
	case err != nil:
		return nil, err
	case p.tagged:
		return nil, errors.New("prelude declares a struct, union or enum type")
	case len(tu.Funcs) > 0:
		return nil, errors.New("prelude defines a function")
	}
	return &Prelude{unit: tu, names: p.names, end: p.lx.Pos(), last: p.last}, nil
}

// ParseAfter parses src, the preprocessed text of a unit after its leading
// includes (cpp.Preprocessor.RunAfter), continuing from pre, the prelude
// of those includes. The unit is what Parse makes of the prelude's text
// and src run together; its declarations begin with the prelude's, which
// it shares.
func ParseAfter(pre *Prelude, src, file string, model *ctypes.Model) (*cast.TranslationUnit, error) {
	p := newParser(pre, src, file, model)
	return p.finish(p.TranslationUnit())
}

func newParser(pre *Prelude, src, file string, model *ctypes.Model) *Parser {
	start, last := pre.end, pre.last
	if !start.IsValid() {
		start = token.Pos{File: file, Line: 1, Col: 1}
		last = start
	}
	p := &Parser{lx: *lexer.NewAt(src, start), model: model, file: file, last: last,
		pre: pre, names: scope.Over(&pre.names)}
	p.pushScope()
	p.tok = p.read()
	p.ahead = p.read()
	return p
}

// finish reports the lexer's error, if it meets one in the rest of the
// input, in preference to err, the parse's.
func (p *Parser) finish(tu *cast.TranslationUnit, err error) (*cast.TranslationUnit, error) {
	for err != nil && !p.done {
		p.read()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	return tu, err
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// ---------- token cursor ----------

// read returns the lexer's next token, or EOF at the last token's
// position once the input is used up or has failed to lex.
func (p *Parser) read() token.Token {
	if !p.done {
		t, err := p.lx.Next()
		if err == nil && t.Kind != token.EOF {
			p.last = t.Pos
			return t
		}
		p.done, p.lexErr = true, err
	}
	return token.Token{Kind: token.EOF, Pos: p.last}
}

func (p *Parser) next() token.Token {
	t := p.tok
	p.tok = p.ahead
	p.ahead = p.read()
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.tok.Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) (token.Token, error) {
	t := p.tok
	if t.Kind != k {
		return t, p.errorf(t.Pos, "expected %v, found %v", k, t)
	}
	p.next()
	return t, nil
}

// ---------- scopes ----------

func (p *Parser) pushScope() {
	p.names.Push()
	p.tags.Push()
}

func (p *Parser) popScope() {
	p.names.Pop()
	p.tags.Pop()
}

// isTypeName reports whether the identifier currently names a type.
func (p *Parser) isTypeName(name string) bool {
	info, ok := p.names.Lookup(name)
	return ok && info.kind == nameTypedef
}

// startsTypeName reports whether the current token can begin a
// type-specifier sequence (used to disambiguate casts, sizeof, and
// declarations from expressions).
func (p *Parser) startsTypeName(t token.Token) bool {
	switch t.Kind {
	case token.KwVoid, token.KwChar, token.KwShort, token.KwInt, token.KwLong,
		token.KwFloat, token.KwDouble, token.KwSigned, token.KwUnsigned,
		token.KwBool, token.KwComplex, token.KwStruct, token.KwUnion,
		token.KwEnum, token.KwConst, token.KwVolatile, token.KwRestrict,
		token.KwAlignas:
		return true
	case token.Ident:
		return p.isTypeName(t.Text)
	}
	return false
}

// startsDecl reports whether the current token can begin a declaration.
func (p *Parser) startsDecl(t token.Token) bool {
	switch t.Kind {
	case token.KwTypedef, token.KwExtern, token.KwStatic, token.KwAuto,
		token.KwRegister, token.KwInline, token.KwNoreturn, token.KwStaticAssert:
		return true
	}
	return p.startsTypeName(t)
}

// ---------- translation unit ----------

// TranslationUnit parses until EOF. The unit starts with the prelude's
// declarations, in slices of its own.
func (p *Parser) TranslationUnit() (*cast.TranslationUnit, error) {
	pre := p.pre.unit
	// The suite units average 2.5 function definitions.
	tu := &cast.TranslationUnit{File: p.file,
		Order: append(make([]cast.Node, 0, len(pre.Order)+8), pre.Order...),
		Funcs: make([]*cast.FuncDef, 0, 4)}
	if len(pre.Decls) > 0 {
		tu.Decls = append(make([]*cast.Decl, 0, len(pre.Decls)+4), pre.Decls...)
	}
	for !p.at(token.EOF) {
		if p.accept(token.Semi) {
			continue // stray semicolons at file scope (common extension)
		}
		if p.at(token.KwStaticAssert) {
			if err := p.staticAssert(); err != nil {
				return nil, err
			}
			continue
		}
		n, err := p.externalDecl()
		if err != nil {
			return nil, err
		}
		switch n := n.(type) {
		case *cast.FuncDef:
			tu.Funcs = append(tu.Funcs, n)
			tu.Order = append(tu.Order, n)
		case []*cast.Decl:
			for _, d := range n {
				tu.Decls = append(tu.Decls, d)
				tu.Order = append(tu.Order, d)
			}
		}
	}
	return tu, nil
}

// externalDecl parses a function definition or a declaration.
// It returns *cast.FuncDef or []*cast.Decl.
func (p *Parser) externalDecl() (any, error) {
	spec, err := p.declSpecifiers()
	if err != nil {
		return nil, err
	}
	// `struct S { ... };` — declaration with no declarator.
	if p.accept(token.Semi) {
		return []*cast.Decl(nil), nil
	}
	// First declarator.
	name, ty, namePos, err := p.declarator(spec.typ)
	if err != nil {
		return nil, err
	}
	// Function definition: declarator is a function type followed by '{'.
	if ty.Kind == ctypes.Func && p.at(token.LBrace) {
		return p.functionDef(name, ty, namePos, spec)
	}
	decls, err := p.finishDeclaration(spec, name, ty, namePos)
	if err != nil {
		return nil, err
	}
	return decls, nil
}

// functionDef parses the body of a function definition whose declarator has
// been consumed.
func (p *Parser) functionDef(name string, ty *ctypes.Type, pos token.Pos, spec declSpec) (*cast.FuncDef, error) {
	if spec.storage == cast.STypedef {
		return nil, p.errorf(pos, "typedef with function body")
	}
	fd := &cast.FuncDef{Name: name, Type: ty, P: pos}
	// Register the function name in the current (file) scope so the body
	// can refer to it (recursion).
	p.names.Declare(name, nameInfo{kind: nameOrdinary})
	p.pushScope()
	for _, param := range ty.Params {
		if param.Name != "" {
			p.names.Declare(param.Name, nameInfo{kind: nameOrdinary})
		}
		sym := &cast.Symbol{Name: param.Name, Type: param.Type, Kind: cast.SymObject, Pos: pos}
		fd.Params = append(fd.Params, sym)
	}
	body, err := p.compound()
	if err != nil {
		return nil, err
	}
	p.popScope()
	fd.Body = body
	return fd, nil
}

// finishDeclaration parses the remainder of a declaration after its first
// declarator: optional initializer, more declarators, and the semicolon.
func (p *Parser) finishDeclaration(spec declSpec, name string, ty *ctypes.Type, pos token.Pos) ([]*cast.Decl, error) {
	var decls []*cast.Decl
	for {
		d := &cast.Decl{Name: name, Type: ty, Storage: spec.storage, P: pos}
		d.VLASize = p.pendingVLA
		p.pendingVLA = nil
		p.registerDecl(spec, name, ty)
		if p.accept(token.Assign) {
			if spec.storage == cast.STypedef {
				return nil, p.errorf(pos, "typedef cannot be initialized")
			}
			init, err := p.initializer()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		if spec.storage != cast.STypedef {
			decls = append(decls, d)
		}
		if !p.accept(token.Comma) {
			break
		}
		var err error
		name, ty, pos, err = p.declarator(spec.typ)
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return decls, nil
}

// registerDecl records what the declarator's name means for later parsing.
func (p *Parser) registerDecl(spec declSpec, name string, ty *ctypes.Type) {
	if name == "" {
		return
	}
	if spec.storage == cast.STypedef {
		p.names.Declare(name, nameInfo{kind: nameTypedef, typ: ty})
	} else {
		p.names.Declare(name, nameInfo{kind: nameOrdinary})
	}
}

// staticAssert parses _Static_assert(expr, "msg"); and checks it.
func (p *Parser) staticAssert() error {
	pos := p.next().Pos // _Static_assert
	if _, err := p.expect(token.LParen); err != nil {
		return err
	}
	cond, err := p.condExpr()
	if err != nil {
		return err
	}
	msg := ""
	if p.accept(token.Comma) {
		t, err := p.expect(token.StringLit)
		if err != nil {
			return err
		}
		b, _, err := lexer.DecodeString(t.Text)
		if err != nil {
			return err
		}
		msg = string(b)
	}
	if _, err := p.expect(token.RParen); err != nil {
		return err
	}
	if _, err := p.expect(token.Semi); err != nil {
		return err
	}
	v, err := cast.FoldInt(p.model, cond)
	if err != nil {
		return p.errorf(pos, "_Static_assert with non-constant expression: %v", err)
	}
	if v.V == 0 {
		return p.errorf(pos, "static assertion failed: %s", msg)
	}
	return nil
}
