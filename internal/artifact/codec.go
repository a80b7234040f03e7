// Package artifact is the content-addressed store for compiled programs:
// a deterministic binary codec for *sema.Program, a checksummed local disk
// tier, and a peer-fetch tier so a cold shard fetches a compiled artifact
// from the cluster instead of redoing the frontend pass.
//
// Artifacts are addressed by driver.SourceKey — the full compile identity
// (source × file × model × defines × format version), never the source
// hash alone: a C program's meaning is inseparable from its build
// configuration, so two configurations must never share an artifact.
package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/sema"
	"repro/internal/token"
	"repro/internal/ub"
)

// ErrCorrupt marks a payload that cannot be decoded: truncated, trailing
// garbage, bad tags, dangling references. Decoding never panics on torn
// input — corruption degrades to a cache miss at the tier layer.
var ErrCorrupt = errors.New("artifact: corrupt payload")

// ErrVersion marks a payload written by a different artifact format
// version. Version skew is belt-and-braces here: the format version is
// folded into driver.SourceKey, so artifacts from older builds are never
// even looked up under current keys.
var ErrVersion = errors.New("artifact: format version mismatch")

// payloadMagic brands every encoded program ahead of the format version.
var payloadMagic = []byte("ubcp")

// Node tags. Every pointer-shaped value on the wire starts with one:
// tagNil for absent, tagRef + varint id for an object already encoded
// (pointer sharing and cycles survive the round trip), or a concrete tag
// that both defines the next object id and selects the dynamic type for
// interface-typed fields.
const (
	tagNil byte = iota
	tagRef

	// Types.
	tagBasic // predeclared unqualified basic type; kind follows
	tagType  // general type definition

	// Declarations.
	tagSymbol
	tagDecl
	tagFuncDef

	// Expressions.
	tagIdent
	tagIntLit
	tagFloatLit
	tagStringLit
	tagUnary
	tagBinary
	tagAssign
	tagCond
	tagComma
	tagCall
	tagIndex
	tagMember
	tagCast
	tagSizeofExpr
	tagSizeofType
	tagCompoundLit
	tagInitList

	// Statements.
	tagExprStmt
	tagEmpty
	tagDeclStmt
	tagCompound
	tagIf
	tagWhile
	tagDoWhile
	tagFor
	tagSwitch
	tagCase
	tagDefault
	tagLabel
	tagGoto
	tagBreak
	tagContinue
	tagReturn
)

// Encode serializes a checked program into a self-describing payload.
// Encoding is deterministic: map-shaped fields are emitted in sorted key
// order and object ids are assigned in traversal order, so the same
// program always yields the same bytes (asserted by the codec tests, which
// also check encode∘decode∘encode is a fixed point).
func Encode(p *sema.Program) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("artifact: encode %s: %v", p.File, r)
		}
	}()
	e := &encoder{ids: make(map[any]int), strs: make(map[string]int)}
	e.buf = append(e.buf, payloadMagic...)
	e.putU(uint64(driver.ArtifactFormat))
	e.model(p.Model)
	e.putStr(p.File)
	e.tu(p.Unit)
	e.putU(uint64(len(p.Globals)))
	for _, g := range p.Globals {
		e.decl(g)
	}
	e.putU(uint64(len(p.Funcs)))
	for _, name := range sortedKeys(p.Funcs) {
		e.putStr(name)
		e.funcDef(p.Funcs[name])
	}
	e.putU(uint64(len(p.Symbols)))
	for _, name := range sortedKeys(p.Symbols) {
		e.putStr(name)
		e.symbol(p.Symbols[name])
	}
	e.putU(uint64(len(p.StaticUB)))
	for _, u := range p.StaticUB {
		e.ubError(u)
	}
	return e.buf, nil
}

// Decode reconstructs a program from Encode's payload. The result honors
// sema.Program's immutability contract and preserves all intra-program
// pointer sharing (Symbol↔FuncDef cycles, Switch case lists, label maps,
// initializer plans aliasing initializer expressions), so it is safe to
// share across concurrent analyses exactly like a freshly compiled one.
// Malformed input yields ErrCorrupt (or ErrVersion), never a panic.
func Decode(data []byte) (p *sema.Program, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("%w: %v", ErrCorrupt, r)
		}
	}()
	if len(data) < len(payloadMagic) || !bytes.Equal(data[:len(payloadMagic)], payloadMagic) {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	d := &decoder{data: data, off: len(payloadMagic)}
	if v := d.u(); v != driver.ArtifactFormat {
		return nil, fmt.Errorf("%w: payload v%d, build v%d", ErrVersion, v, driver.ArtifactFormat)
	}
	p = &sema.Program{}
	p.Model = d.model()
	p.File = d.str()
	p.Unit = d.tu()
	p.Globals = make([]*cast.Decl, d.count())
	for i := range p.Globals {
		p.Globals[i] = d.decl()
	}
	if n := d.count(); n > 0 {
		p.Funcs = make(map[string]*cast.FuncDef, n)
		for i := 0; i < n; i++ {
			name := d.str()
			p.Funcs[name] = d.funcDef()
		}
	} else {
		p.Funcs = make(map[string]*cast.FuncDef)
	}
	if n := d.count(); n > 0 {
		p.Symbols = make(map[string]*cast.Symbol, n)
		for i := 0; i < n; i++ {
			name := d.str()
			p.Symbols[name] = d.symbol()
		}
	} else {
		p.Symbols = make(map[string]*cast.Symbol)
	}
	if n := d.count(); n > 0 {
		p.StaticUB = make([]*ub.Error, n)
		for i := range p.StaticUB {
			p.StaticUB[i] = d.ubError()
		}
	}
	if d.off != len(d.data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.data)-d.off)
	}
	if len(d.slotted) > 0 {
		s := d.slotted[0]
		return nil, fmt.Errorf("%w: symbol %q has slot %d outside any function", ErrCorrupt, s.Name, s.Slot)
	}
	for _, t := range d.types {
		t.RestoreDecay()
	}
	return p, nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---------- encoder ----------

type encoder struct {
	buf []byte
	// ids assigns object ids by interface identity in traversal order; the
	// decoder rebuilds the same numbering implicitly, so tagRef carries
	// only the id.
	ids map[any]int
	// strs interns strings (positions repeat the file name on every node).
	strs map[string]int
}

func (e *encoder) putByte(b byte) { e.buf = append(e.buf, b) }
func (e *encoder) putU(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) putI(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) putF64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) putBool(v bool) {
	if v {
		e.putByte(1)
	} else {
		e.putByte(0)
	}
}

func (e *encoder) putStr(s string) {
	if id, ok := e.strs[s]; ok {
		e.putU(uint64(id) + 1)
		return
	}
	e.strs[s] = len(e.strs)
	e.putU(0)
	e.putU(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) putBytes(b []byte) {
	e.putU(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// ref emits a back-reference if x was already encoded and reports true;
// otherwise it claims the next object id for x and reports false so the
// caller emits the definition. The id is claimed BEFORE the fields are
// encoded, which is what lets cycles (Symbol.FuncDef ↔ FuncDef.Sym,
// recursive struct types) terminate.
func (e *encoder) ref(x any) bool {
	if id, ok := e.ids[x]; ok {
		e.putByte(tagRef)
		e.putU(uint64(id))
		return true
	}
	e.ids[x] = len(e.ids)
	return false
}

func (e *encoder) pos(p token.Pos) {
	e.putStr(p.File)
	e.putI(int64(p.Line))
	e.putI(int64(p.Col))
}

func (e *encoder) model(m *ctypes.Model) {
	if m == nil {
		e.putBool(false)
		return
	}
	e.putBool(true)
	e.putStr(m.Name)
	for _, v := range []int64{
		m.SizeShort, m.SizeInt, m.SizeLong, m.SizeLongLong, m.SizePtr,
		m.SizeFloat, m.SizeDouble, m.SizeLongDouble, m.SizeBool, m.MaxAlign,
	} {
		e.putI(v)
	}
	e.putBool(m.CharSigned)
}

func (e *encoder) typ(t *ctypes.Type) {
	if t == nil {
		e.putByte(tagNil)
		return
	}
	// Unqualified basic types collapse onto the predeclared singletons;
	// the decoder hands back ctypes.TInt itself, not a copy.
	if t.Qual == 0 && t.Kind >= ctypes.Void && t.Kind <= ctypes.LongDouble {
		e.putByte(tagBasic)
		e.putU(uint64(t.Kind))
		return
	}
	if e.ref(t) {
		return
	}
	e.putByte(tagType)
	e.putU(uint64(t.Kind))
	e.putU(uint64(t.Qual))
	e.typ(t.Elem)
	e.putI(t.ArrayLen)
	e.putBool(t.VLA)
	e.putStr(t.Tag)
	e.putU(uint64(len(t.Fields)))
	for i := range t.Fields {
		e.field(&t.Fields[i])
	}
	e.putBool(t.Incomplete)
	e.putU(uint64(len(t.Params)))
	for _, p := range t.Params {
		e.putStr(p.Name)
		e.typ(p.Type)
	}
	e.putBool(t.Variadic)
	e.putBool(t.OldStyle)
}

func (e *encoder) field(f *ctypes.Field) {
	e.putStr(f.Name)
	e.typ(f.Type)
	e.putI(f.Offset)
	e.putBool(f.BitField)
	e.putI(int64(f.BitWidth))
	e.putI(int64(f.BitOff))
}

func (e *encoder) symbol(s *cast.Symbol) {
	if s == nil {
		e.putByte(tagNil)
		return
	}
	if e.ref(s) {
		return
	}
	e.putByte(tagSymbol)
	e.putStr(s.Name)
	e.typ(s.Type)
	e.putU(uint64(s.Kind))
	e.putU(uint64(s.Storage))
	e.pos(s.Pos)
	e.putI(s.EnumVal)
	e.putI(int64(s.Slot))
	e.funcDef(s.FuncDef)
	e.putBool(s.Referenced)
}

func (e *encoder) funcDef(f *cast.FuncDef) {
	if f == nil {
		e.putByte(tagNil)
		return
	}
	if e.ref(f) {
		return
	}
	e.putByte(tagFuncDef)
	e.putStr(f.Name)
	e.typ(f.Type)
	e.putU(uint64(len(f.Params)))
	for _, p := range f.Params {
		e.symbol(p)
	}
	e.stmt(f.Body)
	e.symbol(f.Sym)
	e.pos(f.P)
	e.putI(int64(f.NumSlots))
	e.putU(uint64(len(f.Labels)))
	for _, name := range sortedKeys(f.Labels) {
		e.putStr(name)
		e.stmt(f.Labels[name])
	}
}

func (e *encoder) decl(dd *cast.Decl) {
	if dd == nil {
		e.putByte(tagNil)
		return
	}
	if e.ref(dd) {
		return
	}
	e.putByte(tagDecl)
	e.putStr(dd.Name)
	e.typ(dd.Type)
	e.putU(uint64(dd.Storage))
	e.expr(dd.Init)
	e.expr(dd.VLASize)
	e.symbol(dd.Sym)
	e.pos(dd.P)
	e.plan(dd.Plan)
	e.putBool(dd.ZeroFill)
}

func (e *encoder) plan(plan []cast.InitAssign) {
	e.putU(uint64(len(plan)))
	for _, a := range plan {
		e.putI(a.Offset)
		e.typ(a.Type)
		e.expr(a.Expr)
	}
}

func (e *encoder) tu(u *cast.TranslationUnit) {
	if u == nil {
		e.putBool(false)
		return
	}
	e.putBool(true)
	e.putStr(u.File)
	e.putU(uint64(len(u.Decls)))
	for _, d := range u.Decls {
		e.decl(d)
	}
	e.putU(uint64(len(u.Funcs)))
	for _, f := range u.Funcs {
		e.funcDef(f)
	}
	e.putU(uint64(len(u.Order)))
	for _, n := range u.Order {
		switch n := n.(type) {
		case *cast.Decl:
			e.putByte(0)
			e.decl(n)
		case *cast.FuncDef:
			e.putByte(1)
			e.funcDef(n)
		default:
			panic(fmt.Sprintf("unknown Order node %T", n))
		}
	}
}

func (e *encoder) ubError(u *ub.Error) {
	if u.Behavior != nil {
		e.putU(uint64(u.Behavior.Code))
	} else {
		e.putU(0)
	}
	e.putStr(u.Msg)
	e.pos(u.Pos)
	e.putStr(u.Func)
}

func (e *encoder) exprBase(b *cast.ExprBase) {
	e.pos(b.P)
	e.typ(b.T)
	e.putBool(b.Lvalue)
}

func (e *encoder) expr(x cast.Expr) {
	if x == nil {
		e.putByte(tagNil)
		return
	}
	if e.ref(x) {
		return
	}
	switch x := x.(type) {
	case *cast.Ident:
		e.putByte(tagIdent)
		e.exprBase(&x.ExprBase)
		e.putStr(x.Name)
		e.symbol(x.Sym)
	case *cast.IntLit:
		e.putByte(tagIntLit)
		e.exprBase(&x.ExprBase)
		e.putU(x.Value)
	case *cast.FloatLit:
		e.putByte(tagFloatLit)
		e.exprBase(&x.ExprBase)
		e.putF64(x.Value)
	case *cast.StringLit:
		e.putByte(tagStringLit)
		e.exprBase(&x.ExprBase)
		e.putBytes(x.Value)
		e.putBool(x.Wide)
	case *cast.Unary:
		e.putByte(tagUnary)
		e.exprBase(&x.ExprBase)
		e.putU(uint64(x.Op))
		e.expr(x.X)
	case *cast.Binary:
		e.putByte(tagBinary)
		e.exprBase(&x.ExprBase)
		e.putU(uint64(x.Op))
		e.expr(x.X)
		e.expr(x.Y)
	case *cast.Assign:
		e.putByte(tagAssign)
		e.exprBase(&x.ExprBase)
		e.putBool(x.HasOp)
		e.putU(uint64(x.Op))
		e.expr(x.L)
		e.expr(x.R)
	case *cast.Cond:
		e.putByte(tagCond)
		e.exprBase(&x.ExprBase)
		e.expr(x.C)
		e.expr(x.Then)
		e.expr(x.Else)
	case *cast.Comma:
		e.putByte(tagComma)
		e.exprBase(&x.ExprBase)
		e.expr(x.X)
		e.expr(x.Y)
	case *cast.Call:
		e.putByte(tagCall)
		e.exprBase(&x.ExprBase)
		e.expr(x.Fn)
		e.putU(uint64(len(x.Args)))
		for _, a := range x.Args {
			e.expr(a)
		}
	case *cast.Index:
		e.putByte(tagIndex)
		e.exprBase(&x.ExprBase)
		e.expr(x.X)
		e.expr(x.I)
	case *cast.Member:
		e.putByte(tagMember)
		e.exprBase(&x.ExprBase)
		e.expr(x.X)
		e.putStr(x.Name)
		e.putBool(x.Arrow)
		e.field(&x.Field)
	case *cast.Cast:
		e.putByte(tagCast)
		e.exprBase(&x.ExprBase)
		e.typ(x.To)
		e.expr(x.X)
	case *cast.SizeofExpr:
		e.putByte(tagSizeofExpr)
		e.exprBase(&x.ExprBase)
		e.expr(x.X)
	case *cast.SizeofType:
		e.putByte(tagSizeofType)
		e.exprBase(&x.ExprBase)
		e.typ(x.Of)
		e.putBool(x.IsAlign)
	case *cast.CompoundLit:
		e.putByte(tagCompoundLit)
		e.exprBase(&x.ExprBase)
		e.typ(x.Of)
		e.expr(x.Init)
		e.plan(x.Plan)
	case *cast.InitList:
		e.putByte(tagInitList)
		e.exprBase(&x.ExprBase)
		e.putU(uint64(len(x.Items)))
		for _, it := range x.Items {
			e.putU(uint64(len(it.Designators)))
			for _, ds := range it.Designators {
				e.putStr(ds.Field)
				e.expr(ds.Index)
				e.pos(ds.Pos)
			}
			e.expr(it.Init)
		}
	default:
		panic(fmt.Sprintf("unknown expr %T", x))
	}
}

func (e *encoder) stmt(s cast.Stmt) {
	if s == nil {
		e.putByte(tagNil)
		return
	}
	if e.ref(s) {
		return
	}
	switch s := s.(type) {
	case *cast.ExprStmt:
		e.putByte(tagExprStmt)
		e.pos(s.P)
		e.expr(s.X)
	case *cast.Empty:
		e.putByte(tagEmpty)
		e.pos(s.P)
	case *cast.DeclStmt:
		e.putByte(tagDeclStmt)
		e.pos(s.P)
		e.putU(uint64(len(s.Decls)))
		for _, d := range s.Decls {
			e.decl(d)
		}
	case *cast.Compound:
		e.putByte(tagCompound)
		e.pos(s.P)
		e.putU(uint64(len(s.List)))
		for _, st := range s.List {
			e.stmt(st)
		}
	case *cast.If:
		e.putByte(tagIf)
		e.pos(s.P)
		e.expr(s.Cond)
		e.stmt(s.Then)
		e.stmt(s.Else)
	case *cast.While:
		e.putByte(tagWhile)
		e.pos(s.P)
		e.expr(s.Cond)
		e.stmt(s.Body)
	case *cast.DoWhile:
		e.putByte(tagDoWhile)
		e.pos(s.P)
		e.stmt(s.Body)
		e.expr(s.Cond)
	case *cast.For:
		e.putByte(tagFor)
		e.pos(s.P)
		e.stmt(s.Init)
		e.expr(s.Cond)
		e.expr(s.Post)
		e.stmt(s.Body)
	case *cast.Switch:
		e.putByte(tagSwitch)
		e.pos(s.P)
		e.expr(s.Tag)
		// Body first: the case/default nodes inside it get their ids
		// there, so the Cases/Dflt lists below are pure back-references
		// and sharing survives the round trip.
		e.stmt(s.Body)
		e.putU(uint64(len(s.Cases)))
		for _, c := range s.Cases {
			e.stmt(c)
		}
		e.stmt(s.Dflt)
	case *cast.Case:
		e.putByte(tagCase)
		e.pos(s.P)
		e.expr(s.Expr)
		e.putI(s.Value)
		e.stmt(s.Stmt)
	case *cast.Default:
		e.putByte(tagDefault)
		e.pos(s.P)
		e.stmt(s.Stmt)
	case *cast.Label:
		e.putByte(tagLabel)
		e.pos(s.P)
		e.putStr(s.Name)
		e.stmt(s.Stmt)
	case *cast.Goto:
		e.putByte(tagGoto)
		e.pos(s.P)
		e.putStr(s.Name)
	case *cast.Break:
		e.putByte(tagBreak)
		e.pos(s.P)
	case *cast.Continue:
		e.putByte(tagContinue)
		e.pos(s.P)
	case *cast.Return:
		e.putByte(tagReturn)
		e.pos(s.P)
		e.expr(s.X)
	default:
		panic(fmt.Sprintf("unknown stmt %T", s))
	}
}

// ---------- decoder ----------

type decoder struct {
	data []byte
	off  int
	objs []any
	strs []string
	// types collects every generally-decoded type for the decay-cache
	// restore pass once the whole graph is in place.
	types []*ctypes.Type
	// slotted holds the frame-slotted symbols met inside the functions
	// being decoded, innermost function last; funcDef checks its own
	// against its NumSlots (see noteSlot).
	slotted []*cast.Symbol
}

// noteSlot notes a symbol met while decoding. Slots index an activation's
// locals, so a symbol with a slot must belong to the function whose
// body it occurs in and lie in 1..NumSlots; funcDef checks that once the
// count is decoded. Refs are noted too: a shared symbol used in a
// function's body must fit that function.
func (d *decoder) noteSlot(s *cast.Symbol) {
	switch {
	case s.Slot < 0:
		d.fail("symbol %q has negative slot %d", s.Name, s.Slot)
	case s.Slot > 0:
		d.slotted = append(d.slotted, s)
	}
}

func (d *decoder) fail(format string, args ...any) {
	panic(fmt.Sprintf(format+" at offset %d", append(args, d.off)...))
}

// reg registers a freshly allocated object under the next id BEFORE its
// fields are decoded, mirroring encoder.ref's id assignment order.
func (d *decoder) reg(x any) { d.objs = append(d.objs, x) }

func (d *decoder) byte() byte {
	if d.off >= len(d.data) {
		d.fail("truncated")
	}
	b := d.data[d.off]
	d.off++
	return b
}

func (d *decoder) u() uint64 {
	v, n := binary.Uvarint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad uvarint")
	}
	d.off += n
	return v
}

func (d *decoder) i() int64 {
	v, n := binary.Varint(d.data[d.off:])
	if n <= 0 {
		d.fail("bad varint")
	}
	d.off += n
	return v
}

func (d *decoder) f64() float64 {
	if d.off+8 > len(d.data) {
		d.fail("truncated float")
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) bool() bool { return d.byte() != 0 }

// count reads a collection length and bounds it by the remaining input
// (every element costs at least one byte), so corrupt lengths fail fast
// instead of provoking a giant allocation.
func (d *decoder) count() int {
	v := d.u()
	if v > uint64(len(d.data)-d.off) {
		d.fail("implausible count %d", v)
	}
	return int(v)
}

func (d *decoder) str() string {
	marker := d.u()
	if marker > 0 {
		id := marker - 1
		if id >= uint64(len(d.strs)) {
			d.fail("bad string ref %d", id)
		}
		return d.strs[id]
	}
	n := d.count()
	s := string(d.data[d.off : d.off+n])
	d.off += n
	d.strs = append(d.strs, s)
	return s
}

func (d *decoder) rawBytes() []byte {
	n := d.count()
	b := make([]byte, n)
	copy(b, d.data[d.off:d.off+n])
	d.off += n
	return b
}

// refObj resolves a tagRef id with a dynamic type check.
func refObj[T any](d *decoder) T {
	id := d.u()
	if id >= uint64(len(d.objs)) {
		d.fail("dangling ref %d", id)
	}
	v, ok := d.objs[id].(T)
	if !ok {
		d.fail("ref %d has wrong type %T", id, d.objs[id])
	}
	return v
}

func (d *decoder) pos() token.Pos {
	return token.Pos{File: d.str(), Line: int(d.i()), Col: int(d.i())}
}

func (d *decoder) model() *ctypes.Model {
	if !d.bool() {
		return nil
	}
	m := &ctypes.Model{Name: d.str()}
	for _, p := range []*int64{
		&m.SizeShort, &m.SizeInt, &m.SizeLong, &m.SizeLongLong, &m.SizePtr,
		&m.SizeFloat, &m.SizeDouble, &m.SizeLongDouble, &m.SizeBool, &m.MaxAlign,
	} {
		*p = d.i()
	}
	m.CharSigned = d.bool()
	return m
}

func (d *decoder) typ() *ctypes.Type {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagBasic:
		t, err := ctypes.BasicOf(ctypes.Kind(d.u()))
		if err != nil {
			d.fail("%v", err)
		}
		return t
	case tagRef:
		return refObj[*ctypes.Type](d)
	case tagType:
		t := &ctypes.Type{}
		d.reg(t)
		d.types = append(d.types, t)
		t.Kind = ctypes.Kind(d.u())
		t.Qual = ctypes.Quals(d.u())
		t.Elem = d.typ()
		t.ArrayLen = d.i()
		t.VLA = d.bool()
		t.Tag = d.str()
		if n := d.count(); n > 0 {
			t.Fields = make([]ctypes.Field, n)
			for i := range t.Fields {
				d.field(&t.Fields[i])
			}
		}
		t.Incomplete = d.bool()
		if n := d.count(); n > 0 {
			t.Params = make([]ctypes.Param, n)
			for i := range t.Params {
				t.Params[i].Name = d.str()
				t.Params[i].Type = d.typ()
			}
		}
		t.Variadic = d.bool()
		t.OldStyle = d.bool()
		return t
	default:
		d.fail("bad type tag %d", tag)
		return nil
	}
}

func (d *decoder) field(f *ctypes.Field) {
	f.Name = d.str()
	f.Type = d.typ()
	f.Offset = d.i()
	f.BitField = d.bool()
	f.BitWidth = int(d.i())
	f.BitOff = int(d.i())
}

func (d *decoder) symbol() *cast.Symbol {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		s := refObj[*cast.Symbol](d)
		d.noteSlot(s)
		return s
	case tagSymbol:
		s := &cast.Symbol{}
		d.reg(s)
		s.Name = d.str()
		s.Type = d.typ()
		s.Kind = cast.SymKind(d.u())
		s.Storage = cast.Storage(d.u())
		s.Pos = d.pos()
		s.EnumVal = d.i()
		s.Slot = int(d.i())
		d.noteSlot(s)
		s.FuncDef = d.funcDef()
		s.Referenced = d.bool()
		return s
	default:
		d.fail("bad symbol tag %d", tag)
		return nil
	}
}

func (d *decoder) funcDef() *cast.FuncDef {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		return refObj[*cast.FuncDef](d)
	case tagFuncDef:
		f := &cast.FuncDef{}
		d.reg(f)
		mark := len(d.slotted)
		f.Name = d.str()
		f.Type = d.typ()
		if n := d.count(); n > 0 {
			f.Params = make([]*cast.Symbol, n)
			for i := range f.Params {
				f.Params[i] = d.symbol()
			}
		}
		if body := d.stmt(); body != nil {
			c, ok := body.(*cast.Compound)
			if !ok {
				d.fail("func body is %T, not *Compound", body)
			}
			f.Body = c
		}
		f.Sym = d.symbol()
		f.P = d.pos()
		f.NumSlots = int(d.i())
		for _, s := range d.slotted[mark:] {
			if s.Slot > f.NumSlots {
				d.fail("function %q: symbol %q has slot %d, want 1..%d", f.Name, s.Name, s.Slot, f.NumSlots)
			}
		}
		d.slotted = d.slotted[:mark]
		if n := d.count(); n > 0 {
			f.Labels = make(map[string]*cast.Label, n)
			for i := 0; i < n; i++ {
				name := d.str()
				st := d.stmt()
				lb, ok := st.(*cast.Label)
				if !ok {
					d.fail("label %q is %T", name, st)
				}
				f.Labels[name] = lb
			}
		}
		return f
	default:
		d.fail("bad funcdef tag %d", tag)
		return nil
	}
}

func (d *decoder) decl() *cast.Decl {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		return refObj[*cast.Decl](d)
	case tagDecl:
		dd := &cast.Decl{}
		d.reg(dd)
		dd.Name = d.str()
		dd.Type = d.typ()
		dd.Storage = cast.Storage(d.u())
		dd.Init = d.expr()
		dd.VLASize = d.expr()
		dd.Sym = d.symbol()
		dd.P = d.pos()
		dd.Plan = d.plan()
		dd.ZeroFill = d.bool()
		return dd
	default:
		d.fail("bad decl tag %d", tag)
		return nil
	}
}

func (d *decoder) plan() []cast.InitAssign {
	n := d.count()
	if n == 0 {
		return nil
	}
	plan := make([]cast.InitAssign, n)
	for i := range plan {
		plan[i].Offset = d.i()
		plan[i].Type = d.typ()
		plan[i].Expr = d.expr()
	}
	return plan
}

func (d *decoder) tu() *cast.TranslationUnit {
	if !d.bool() {
		return nil
	}
	u := &cast.TranslationUnit{File: d.str()}
	if n := d.count(); n > 0 {
		u.Decls = make([]*cast.Decl, n)
		for i := range u.Decls {
			u.Decls[i] = d.decl()
		}
	}
	if n := d.count(); n > 0 {
		u.Funcs = make([]*cast.FuncDef, n)
		for i := range u.Funcs {
			u.Funcs[i] = d.funcDef()
		}
	}
	if n := d.count(); n > 0 {
		u.Order = make([]cast.Node, n)
		for i := range u.Order {
			switch kind := d.byte(); kind {
			case 0:
				u.Order[i] = d.decl()
			case 1:
				u.Order[i] = d.funcDef()
			default:
				d.fail("bad order kind %d", kind)
			}
		}
	}
	return u
}

func (d *decoder) ubError() *ub.Error {
	u := &ub.Error{}
	if code := d.u(); code != 0 {
		b, ok := ub.Lookup(int(code))
		if !ok {
			d.fail("unknown UB code %d", code)
		}
		u.Behavior = b
	}
	u.Msg = d.str()
	u.Pos = d.pos()
	u.Func = d.str()
	return u
}

func (d *decoder) exprBase(b *cast.ExprBase) {
	b.P = d.pos()
	b.T = d.typ()
	b.Lvalue = d.bool()
}

func (d *decoder) expr() cast.Expr {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		return refObj[cast.Expr](d)
	case tagIdent:
		x := &cast.Ident{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Name = d.str()
		x.Sym = d.symbol()
		return x
	case tagIntLit:
		x := &cast.IntLit{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Value = d.u()
		return x
	case tagFloatLit:
		x := &cast.FloatLit{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Value = d.f64()
		return x
	case tagStringLit:
		x := &cast.StringLit{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Value = d.rawBytes()
		x.Wide = d.bool()
		return x
	case tagUnary:
		x := &cast.Unary{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Op = cast.UnaryOp(d.u())
		x.X = d.expr()
		return x
	case tagBinary:
		x := &cast.Binary{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Op = cast.BinaryOp(d.u())
		x.X = d.expr()
		x.Y = d.expr()
		return x
	case tagAssign:
		x := &cast.Assign{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.HasOp = d.bool()
		x.Op = cast.BinaryOp(d.u())
		x.L = d.expr()
		x.R = d.expr()
		return x
	case tagCond:
		x := &cast.Cond{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.C = d.expr()
		x.Then = d.expr()
		x.Else = d.expr()
		return x
	case tagComma:
		x := &cast.Comma{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.X = d.expr()
		x.Y = d.expr()
		return x
	case tagCall:
		x := &cast.Call{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Fn = d.expr()
		if n := d.count(); n > 0 {
			x.Args = make([]cast.Expr, n)
			for i := range x.Args {
				x.Args[i] = d.expr()
			}
		}
		return x
	case tagIndex:
		x := &cast.Index{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.X = d.expr()
		x.I = d.expr()
		return x
	case tagMember:
		x := &cast.Member{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.X = d.expr()
		x.Name = d.str()
		x.Arrow = d.bool()
		d.field(&x.Field)
		return x
	case tagCast:
		x := &cast.Cast{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.To = d.typ()
		x.X = d.expr()
		return x
	case tagSizeofExpr:
		x := &cast.SizeofExpr{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.X = d.expr()
		return x
	case tagSizeofType:
		x := &cast.SizeofType{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Of = d.typ()
		x.IsAlign = d.bool()
		return x
	case tagCompoundLit:
		x := &cast.CompoundLit{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		x.Of = d.typ()
		if init := d.expr(); init != nil {
			il, ok := init.(*cast.InitList)
			if !ok {
				d.fail("compound literal init is %T", init)
			}
			x.Init = il
		}
		x.Plan = d.plan()
		return x
	case tagInitList:
		x := &cast.InitList{}
		d.reg(x)
		d.exprBase(&x.ExprBase)
		if n := d.count(); n > 0 {
			x.Items = make([]cast.InitItem, n)
			for i := range x.Items {
				if nd := d.count(); nd > 0 {
					x.Items[i].Designators = make([]cast.Designator, nd)
					for j := range x.Items[i].Designators {
						ds := &x.Items[i].Designators[j]
						ds.Field = d.str()
						ds.Index = d.expr()
						ds.Pos = d.pos()
					}
				}
				x.Items[i].Init = d.expr()
			}
		}
		return x
	default:
		d.fail("bad expr tag %d", tag)
		return nil
	}
}

func (d *decoder) stmt() cast.Stmt {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagRef:
		return refObj[cast.Stmt](d)
	case tagExprStmt:
		s := &cast.ExprStmt{}
		d.reg(s)
		s.P = d.pos()
		s.X = d.expr()
		return s
	case tagEmpty:
		s := &cast.Empty{}
		d.reg(s)
		s.P = d.pos()
		return s
	case tagDeclStmt:
		s := &cast.DeclStmt{}
		d.reg(s)
		s.P = d.pos()
		if n := d.count(); n > 0 {
			s.Decls = make([]*cast.Decl, n)
			for i := range s.Decls {
				s.Decls[i] = d.decl()
			}
		}
		return s
	case tagCompound:
		s := &cast.Compound{}
		d.reg(s)
		s.P = d.pos()
		if n := d.count(); n > 0 {
			s.List = make([]cast.Stmt, n)
			for i := range s.List {
				s.List[i] = d.stmt()
			}
		}
		return s
	case tagIf:
		s := &cast.If{}
		d.reg(s)
		s.P = d.pos()
		s.Cond = d.expr()
		s.Then = d.stmt()
		s.Else = d.stmt()
		return s
	case tagWhile:
		s := &cast.While{}
		d.reg(s)
		s.P = d.pos()
		s.Cond = d.expr()
		s.Body = d.stmt()
		return s
	case tagDoWhile:
		s := &cast.DoWhile{}
		d.reg(s)
		s.P = d.pos()
		s.Body = d.stmt()
		s.Cond = d.expr()
		return s
	case tagFor:
		s := &cast.For{}
		d.reg(s)
		s.P = d.pos()
		s.Init = d.stmt()
		s.Cond = d.expr()
		s.Post = d.expr()
		s.Body = d.stmt()
		return s
	case tagSwitch:
		s := &cast.Switch{}
		d.reg(s)
		s.P = d.pos()
		s.Tag = d.expr()
		s.Body = d.stmt()
		if n := d.count(); n > 0 {
			s.Cases = make([]*cast.Case, n)
			for i := range s.Cases {
				st := d.stmt()
				c, ok := st.(*cast.Case)
				if !ok {
					d.fail("switch case is %T", st)
				}
				s.Cases[i] = c
			}
		}
		if st := d.stmt(); st != nil {
			df, ok := st.(*cast.Default)
			if !ok {
				d.fail("switch default is %T", st)
			}
			s.Dflt = df
		}
		return s
	case tagCase:
		s := &cast.Case{}
		d.reg(s)
		s.P = d.pos()
		s.Expr = d.expr()
		s.Value = d.i()
		s.Stmt = d.stmt()
		return s
	case tagDefault:
		s := &cast.Default{}
		d.reg(s)
		s.P = d.pos()
		s.Stmt = d.stmt()
		return s
	case tagLabel:
		s := &cast.Label{}
		d.reg(s)
		s.P = d.pos()
		s.Name = d.str()
		s.Stmt = d.stmt()
		return s
	case tagGoto:
		s := &cast.Goto{}
		d.reg(s)
		s.P = d.pos()
		s.Name = d.str()
		return s
	case tagBreak:
		s := &cast.Break{}
		d.reg(s)
		s.P = d.pos()
		return s
	case tagContinue:
		s := &cast.Continue{}
		d.reg(s)
		s.P = d.pos()
		return s
	case tagReturn:
		s := &cast.Return{}
		d.reg(s)
		s.P = d.pos()
		s.X = d.expr()
		return s
	default:
		d.fail("bad stmt tag %d", tag)
		return nil
	}
}
