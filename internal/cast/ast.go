// Package cast defines the abstract syntax tree for C translation units.
// ("cast" = C AST; the name "ast" would shadow the standard library's.)
//
// Types are resolved during parsing (C's grammar requires it), so
// declaration nodes carry *ctypes.Type directly. Expression nodes have a T
// field annotated by the type checker (internal/sema).
package cast

import (
	"repro/internal/ctypes"
	"repro/internal/token"
)

// Node is implemented by all AST nodes.
type Node interface {
	Pos() token.Pos
}

// ---------- Expressions ----------

// Expr is implemented by all expression nodes. T returns the type annotated
// by the checker (nil before checking).
type Expr interface {
	Node
	Type() *ctypes.Type
	exprNode()
}

// ExprBase carries the source position and checked type of an expression.
type ExprBase struct {
	P token.Pos
	T *ctypes.Type // set by sema
	// Lvalue reports whether the checker classified this expression as an
	// lvalue (before any lvalue conversion).
	Lvalue bool
}

// Pos implements Node.
func (b *ExprBase) Pos() token.Pos { return b.P }

// Type returns the checked type.
func (b *ExprBase) Type() *ctypes.Type { return b.T }

func (b *ExprBase) exprNode() {}

// Ident is a use of a declared name.
type Ident struct {
	ExprBase
	Name string
	// Sym is resolved by sema; it identifies the declaration this use
	// refers to.
	Sym *Symbol
}

// Symbol is a declared object, function, enum constant, or typedef.
// Symbols are created by the parser for declarations and resolved to uses
// by sema.
type Symbol struct {
	Name    string
	Type    *ctypes.Type
	Kind    SymKind
	Storage Storage
	Pos     token.Pos

	// EnumVal is the value for enum-constant symbols.
	EnumVal int64

	// Slot is the symbol's frame slot, assigned by sema: parameters and
	// block-scope objects (static ones included) are numbered 1..NumSlots
	// of their function, uniquely, so the interpreter indexes an
	// activation's locals by it. 0 means "not a frame slot": file-scope
	// symbols, functions, and block-scope extern and function
	// declarations, which all resolve to file-scope objects.
	Slot int

	// FuncDef is set for functions that have a definition.
	FuncDef *FuncDef

	// Referenced tracks whether the symbol is ever used (for diagnostics).
	Referenced bool
}

// SymKind classifies symbols.
type SymKind int

// Symbol kinds.
const (
	SymObject SymKind = iota
	SymFunc
	SymTypedef
	SymEnumConst
)

// Storage is a declaration's storage class.
type Storage int

// Storage classes.
const (
	SAuto Storage = iota
	SStatic
	SExtern
	SRegister
	STypedef
)

func (s Storage) String() string {
	switch s {
	case SStatic:
		return "static"
	case SExtern:
		return "extern"
	case SRegister:
		return "register"
	case STypedef:
		return "typedef"
	default:
		return "auto"
	}
}

// IntLit is an integer constant.
type IntLit struct {
	ExprBase
	Value uint64 // canonical 64-bit representation (see ctypes.Model.Wrap)
}

// FloatLit is a floating constant.
type FloatLit struct {
	ExprBase
	Value float64
}

// StringLit is a string literal (possibly concatenated); Value excludes the
// terminating NUL, which is implied.
type StringLit struct {
	ExprBase
	Value []byte
	Wide  bool
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	UAddr    UnaryOp = iota // &x
	UDeref                  // *x
	UPlus                   // +x
	UNeg                    // -x
	UCompl                  // ~x
	UNot                    // !x
	UPreInc                 // ++x
	UPreDec                 // --x
	UPostInc                // x++
	UPostDec                // x--
)

var unaryNames = [...]string{
	UAddr: "&", UDeref: "*", UPlus: "+", UNeg: "-", UCompl: "~", UNot: "!",
	UPreInc: "++", UPreDec: "--", UPostInc: "++(post)", UPostDec: "--(post)",
}

func (op UnaryOp) String() string { return unaryNames[op] }

// Unary is a unary operator application.
type Unary struct {
	ExprBase
	Op UnaryOp
	X  Expr
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	BAdd BinaryOp = iota
	BSub
	BMul
	BDiv
	BRem
	BShl
	BShr
	BLt
	BGt
	BLe
	BGe
	BEq
	BNe
	BAnd // &
	BXor // ^
	BOr  // |
	BLogAnd
	BLogOr
)

var binaryNames = [...]string{
	BAdd: "+", BSub: "-", BMul: "*", BDiv: "/", BRem: "%", BShl: "<<",
	BShr: ">>", BLt: "<", BGt: ">", BLe: "<=", BGe: ">=", BEq: "==",
	BNe: "!=", BAnd: "&", BXor: "^", BOr: "|", BLogAnd: "&&", BLogOr: "||",
}

func (op BinaryOp) String() string { return binaryNames[op] }

// Binary is a binary operator application.
type Binary struct {
	ExprBase
	Op   BinaryOp
	X, Y Expr
}

// Assign is an assignment; for compound assignments Op is the arithmetic
// operator (e.g. BAdd for +=); for plain assignment HasOp is false.
type Assign struct {
	ExprBase
	HasOp bool
	Op    BinaryOp
	L, R  Expr
}

// Cond is the conditional operator c ? t : f.
type Cond struct {
	ExprBase
	C, Then, Else Expr
}

// Comma is the comma operator (a sequence point between X and Y).
type Comma struct {
	ExprBase
	X, Y Expr
}

// Call is a function call.
type Call struct {
	ExprBase
	Fn   Expr
	Args []Expr
}

// Index is array subscripting a[i].
type Index struct {
	ExprBase
	X, I Expr
}

// Member is x.Name or, when Arrow, x->Name.
type Member struct {
	ExprBase
	X     Expr
	Name  string
	Arrow bool
	// Field is resolved by sema.
	Field ctypes.Field
}

// Cast is an explicit conversion (To)X.
type Cast struct {
	ExprBase
	To *ctypes.Type
	X  Expr
}

// SizeofExpr is sizeof expr. The operand is not evaluated (except VLA
// operands, which we evaluate per C11 §6.5.3.4:2).
type SizeofExpr struct {
	ExprBase
	X Expr
}

// SizeofType is sizeof(type-name) or _Alignof(type-name) when IsAlign.
type SizeofType struct {
	ExprBase
	Of      *ctypes.Type
	IsAlign bool
}

// CompoundLit is a C99 compound literal (type){init}.
type CompoundLit struct {
	ExprBase
	Of   *ctypes.Type
	Init *InitList
	// Plan is the resolved initialization plan built by sema.
	Plan []InitAssign
}

// InitList is a braced initializer; it appears in declarations and compound
// literals but is not a standalone expression value.
type InitList struct {
	ExprBase
	Items []InitItem
}

// InitItem is one element of an initializer list, optionally designated.
type InitItem struct {
	Designators []Designator
	Init        Expr // an expression or a nested *InitList
}

// Designator selects a field (.name) or element ([index]).
type Designator struct {
	Field string // non-empty for .field
	Index Expr   // non-nil for [expr]; constant-folded by sema
	Pos   token.Pos
}

// ---------- Statements ----------

// Stmt is implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

// StmtBase carries a statement's position.
type StmtBase struct {
	P token.Pos
}

// Pos implements Node.
func (b *StmtBase) Pos() token.Pos { return b.P }

func (b *StmtBase) stmtNode() {}

// ExprStmt is an expression statement (a full expression; its end is a
// sequence point).
type ExprStmt struct {
	StmtBase
	X Expr
}

// Empty is the null statement ";".
type Empty struct{ StmtBase }

// DeclStmt is a block-scope declaration; one source declaration may declare
// several names.
type DeclStmt struct {
	StmtBase
	Decls []*Decl
}

// Compound is a brace-enclosed block.
type Compound struct {
	StmtBase
	List []Stmt
}

// If statement.
type If struct {
	StmtBase
	Cond       Expr
	Then, Else Stmt // Else may be nil
}

// While loop.
type While struct {
	StmtBase
	Cond Expr
	Body Stmt
}

// DoWhile loop.
type DoWhile struct {
	StmtBase
	Body Stmt
	Cond Expr
}

// For loop. Init may be a *DeclStmt (C99) or *ExprStmt or nil; Cond and Post
// may be nil.
type For struct {
	StmtBase
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Switch statement.
type Switch struct {
	StmtBase
	Tag  Expr
	Body Stmt
	// Cases and Dflt are collected by sema for the interpreter.
	Cases []*Case
	Dflt  *Default
}

// Case label. Value is the constant-folded case expression.
type Case struct {
	StmtBase
	Expr  Expr
	Value int64
	Stmt  Stmt
}

// Default label.
type Default struct {
	StmtBase
	Stmt Stmt
}

// Label is a named label.
type Label struct {
	StmtBase
	Name string
	Stmt Stmt
}

// Goto statement.
type Goto struct {
	StmtBase
	Name string
}

// Break statement.
type Break struct{ StmtBase }

// Continue statement.
type Continue struct{ StmtBase }

// Return statement; X may be nil.
type Return struct {
	StmtBase
	X Expr
}

// ---------- Declarations ----------

// InitAssign is one resolved step of an initialization plan: evaluate Expr
// and store it at Offset bytes into the object, as type Type. A *StringLit
// Expr with an array Type copies the literal's bytes (plus NUL, space
// permitting).
type InitAssign struct {
	Offset int64
	Type   *ctypes.Type
	Expr   Expr
}

// Decl is a single declarator within a declaration.
type Decl struct {
	Name    string
	Type    *ctypes.Type
	Storage Storage
	Init    Expr // expression, *InitList, or nil
	// VLASize is the size expression when Type is a variable-length array
	// (Type.VLA). Only the outermost dimension may be variable.
	VLASize Expr
	Sym     *Symbol
	P       token.Pos

	// Plan is the resolved initialization plan built by sema from Init.
	Plan []InitAssign
	// ZeroFill reports whether the object must be zeroed before the plan
	// runs (braced initializers leave unmentioned members zero).
	ZeroFill bool
}

// Pos implements Node.
func (d *Decl) Pos() token.Pos { return d.P }

// FuncDef is a function definition.
type FuncDef struct {
	Name   string
	Type   *ctypes.Type // a Func type
	Params []*Symbol    // parameter symbols, in order
	Body   *Compound
	Sym    *Symbol
	P      token.Pos
	// NumSlots is the number of frame slots (the highest Symbol.Slot of
	// its parameters and block-scope objects), set by sema.
	NumSlots int
	// Labels maps label names to their statements, set by sema.
	Labels map[string]*Label
}

// Pos implements Node.
func (f *FuncDef) Pos() token.Pos { return f.P }

// TranslationUnit is a parsed source file.
type TranslationUnit struct {
	File  string
	Decls []*Decl    // file-scope objects (in declaration order)
	Funcs []*FuncDef // function definitions (in declaration order)
	// Order interleaves Decls and Funcs in source order for initializers
	// whose semantics depend on order.
	Order []Node
}
