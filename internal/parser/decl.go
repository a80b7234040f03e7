package parser

import (
	"slices"

	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/token"
)

// declSpec is the result of parsing declaration specifiers.
type declSpec struct {
	typ     *ctypes.Type
	storage cast.Storage
	inline  bool
	pos     token.Pos
}

// declSpecifiers parses storage-class specifiers, type specifiers, and type
// qualifiers.
func (p *Parser) declSpecifiers() (declSpec, error) {
	spec := declSpec{pos: p.tok.Pos, storage: cast.SAuto}
	sawStorage := false

	// Type specifier accumulation (C11 §6.7.2:2 lists the valid combos).
	var (
		base                       *ctypes.Type // struct/union/enum/typedef
		nVoid, nChar, nInt, nFloat int
		nDouble, nBool             int
		nShort, nLong              int
		nSigned, nUnsigned         int
		quals                      ctypes.Quals
		sawAnySpec                 bool
	)

	for {
		t := p.tok
		switch t.Kind {
		case token.KwTypedef, token.KwExtern, token.KwStatic, token.KwAuto, token.KwRegister:
			if sawStorage {
				return spec, p.errorf(t.Pos, "multiple storage class specifiers")
			}
			sawStorage = true
			switch t.Kind {
			case token.KwTypedef:
				spec.storage = cast.STypedef
			case token.KwExtern:
				spec.storage = cast.SExtern
			case token.KwStatic:
				spec.storage = cast.SStatic
			case token.KwRegister:
				spec.storage = cast.SRegister
			default:
				spec.storage = cast.SAuto
			}
			p.next()
		case token.KwInline, token.KwNoreturn:
			spec.inline = true
			p.next()
		case token.KwConst:
			quals |= ctypes.QConst
			p.next()
		case token.KwVolatile:
			quals |= ctypes.QVolatile
			p.next()
		case token.KwRestrict:
			quals |= ctypes.QRestrict
			p.next()
		case token.KwVoid:
			nVoid++
			sawAnySpec = true
			p.next()
		case token.KwChar:
			nChar++
			sawAnySpec = true
			p.next()
		case token.KwShort:
			nShort++
			sawAnySpec = true
			p.next()
		case token.KwInt:
			nInt++
			sawAnySpec = true
			p.next()
		case token.KwLong:
			nLong++
			sawAnySpec = true
			p.next()
		case token.KwFloat:
			nFloat++
			sawAnySpec = true
			p.next()
		case token.KwDouble:
			nDouble++
			sawAnySpec = true
			p.next()
		case token.KwSigned:
			nSigned++
			sawAnySpec = true
			p.next()
		case token.KwUnsigned:
			nUnsigned++
			sawAnySpec = true
			p.next()
		case token.KwBool:
			nBool++
			sawAnySpec = true
			p.next()
		case token.KwStruct, token.KwUnion:
			if base != nil || sawAnySpec {
				return spec, p.errorf(t.Pos, "invalid type specifier combination")
			}
			su, err := p.structOrUnionSpecifier()
			if err != nil {
				return spec, err
			}
			base = su
			sawAnySpec = true
		case token.KwEnum:
			if base != nil || sawAnySpec {
				return spec, p.errorf(t.Pos, "invalid type specifier combination")
			}
			en, err := p.enumSpecifier()
			if err != nil {
				return spec, err
			}
			base = en
			sawAnySpec = true
		case token.KwAlignas:
			// Parse and ignore the alignment (we do not support
			// over-alignment; the operand is still validated).
			p.next()
			if _, err := p.expect(token.LParen); err != nil {
				return spec, err
			}
			if p.startsTypeName(p.tok) {
				if _, err := p.typeName(); err != nil {
					return spec, err
				}
			} else {
				e, err := p.condExpr()
				if err != nil {
					return spec, err
				}
				if _, err := cast.FoldInt(p.model, e); err != nil {
					return spec, p.errorf(t.Pos, "_Alignas requires a constant: %v", err)
				}
			}
			if _, err := p.expect(token.RParen); err != nil {
				return spec, err
			}
		case token.Ident:
			// A typedef name acts as the sole type specifier.
			if base == nil && !sawAnySpec && p.isTypeName(t.Text) {
				info, _ := p.names.Lookup(t.Text)
				base = info.typ
				sawAnySpec = true
				p.next()
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	if !sawAnySpec && quals == 0 && !sawStorage && !spec.inline {
		return spec, p.errorf(p.tok.Pos, "expected declaration specifiers, found %v", p.tok)
	}
	if base == nil {
		var err error
		base, err = combineSpecifiers(p, spec.pos, nVoid, nChar, nShort, nInt,
			nLong, nFloat, nDouble, nBool, nSigned, nUnsigned, sawAnySpec)
		if err != nil {
			return spec, err
		}
	} else if nVoid+nChar+nShort+nInt+nLong+nFloat+nDouble+nBool+nSigned+nUnsigned > 0 {
		return spec, p.errorf(spec.pos, "invalid type specifier combination")
	}
	spec.typ = base.Qualified(quals)
	return spec, nil
}

// combineSpecifiers maps counted basic type keywords to a type.
func combineSpecifiers(p *Parser, pos token.Pos, nVoid, nChar, nShort, nInt, nLong, nFloat, nDouble, nBool, nSigned, nUnsigned int, sawAny bool) (*ctypes.Type, error) {
	bad := func() (*ctypes.Type, error) {
		return nil, p.errorf(pos, "invalid type specifier combination")
	}
	if nSigned > 0 && nUnsigned > 0 {
		return bad()
	}
	switch {
	case nVoid == 1:
		if nChar+nShort+nInt+nLong+nFloat+nDouble+nBool+nSigned+nUnsigned > 0 {
			return bad()
		}
		return ctypes.TVoid, nil
	case nBool == 1:
		if nChar+nShort+nInt+nLong+nFloat+nDouble+nSigned+nUnsigned > 0 {
			return bad()
		}
		return ctypes.TBool, nil
	case nFloat == 1:
		if nChar+nShort+nInt+nLong+nDouble+nSigned+nUnsigned > 0 {
			return bad()
		}
		return ctypes.TFloat, nil
	case nDouble == 1:
		if nChar+nShort+nInt+nSigned+nUnsigned > 0 || nLong > 1 {
			return bad()
		}
		if nLong == 1 {
			return ctypes.TLongDouble, nil
		}
		return ctypes.TDouble, nil
	case nChar == 1:
		if nShort+nInt+nLong > 0 {
			return bad()
		}
		switch {
		case nSigned == 1:
			return ctypes.TSChar, nil
		case nUnsigned == 1:
			return ctypes.TUChar, nil
		}
		return ctypes.TChar, nil
	case nShort == 1:
		if nLong > 0 || nInt > 1 {
			return bad()
		}
		if nUnsigned == 1 {
			return ctypes.TUShort, nil
		}
		return ctypes.TShort, nil
	case nLong == 1:
		if nInt > 1 {
			return bad()
		}
		if nUnsigned == 1 {
			return ctypes.TULong, nil
		}
		return ctypes.TLong, nil
	case nLong == 2:
		if nInt > 1 {
			return bad()
		}
		if nUnsigned == 1 {
			return ctypes.TULongLong, nil
		}
		return ctypes.TLongLong, nil
	case nLong > 2:
		return bad()
	case nInt == 1 || (nInt == 0 && (nSigned == 1 || nUnsigned == 1)):
		if nUnsigned == 1 {
			return ctypes.TUInt, nil
		}
		return ctypes.TInt, nil
	case !sawAny:
		// Implicit int (pre-C99); we accept it for old test programs.
		return ctypes.TInt, nil
	}
	return bad()
}

// structOrUnionSpecifier parses struct/union type specifiers.
func (p *Parser) structOrUnionSpecifier() (*ctypes.Type, error) {
	kw := p.next() // struct or union
	p.tagged = true
	kind := ctypes.Struct
	if kw.Kind == token.KwUnion {
		kind = ctypes.Union
	}
	tag := ""
	if p.at(token.Ident) {
		tag = p.next().Text
	}
	if !p.at(token.LBrace) {
		if tag == "" {
			return nil, p.errorf(kw.Pos, "%s with neither tag nor member list", kw.Text)
		}
		// Reference: find existing tag or create an incomplete type.
		if t, ok := p.tags.Lookup(tag); ok {
			if t.Kind != kind {
				return nil, p.errorf(kw.Pos, "tag %q redeclared as a different kind", tag)
			}
			return t, nil
		}
		t := &ctypes.Type{Kind: kind, Tag: tag, Incomplete: true}
		p.tags.Declare(tag, t)
		return t, nil
	}
	// Definition.
	var t *ctypes.Type
	if tag != "" {
		if existing, ok := p.tags.LookupLocal(tag); ok {
			if existing.Kind != kind {
				return nil, p.errorf(kw.Pos, "tag %q redeclared as a different kind", tag)
			}
			if !existing.Incomplete {
				return nil, p.errorf(kw.Pos, "redefinition of %s %s", kw.Text, tag)
			}
			t = existing
		}
	}
	if t == nil {
		t = &ctypes.Type{Kind: kind, Tag: tag, Incomplete: true}
		if tag != "" {
			p.tags.Declare(tag, t)
		}
	}
	p.next() // {
	var fields []ctypes.Field
	for !p.at(token.RBrace) {
		fs, err := p.structDeclaration()
		if err != nil {
			return nil, err
		}
		fields = append(fields, fs...)
	}
	p.next() // }
	if len(fields) == 0 {
		return nil, p.errorf(kw.Pos, "%s with no members", kw.Text)
	}
	t.Fields = fields
	t.Incomplete = false
	return t, nil
}

// structDeclaration parses one member declaration line.
func (p *Parser) structDeclaration() ([]ctypes.Field, error) {
	if p.at(token.KwStaticAssert) {
		if err := p.staticAssert(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	spec, err := p.declSpecifiers()
	if err != nil {
		return nil, err
	}
	if spec.storage != cast.SAuto {
		return nil, p.errorf(spec.pos, "storage class in struct member")
	}
	var fields []ctypes.Field
	// Anonymous struct/union member: `struct {...};`
	if p.accept(token.Semi) {
		if spec.typ.Kind == ctypes.Struct || spec.typ.Kind == ctypes.Union {
			fields = append(fields, ctypes.Field{Name: "", Type: spec.typ})
			return fields, nil
		}
		return nil, p.errorf(spec.pos, "declaration does not declare anything")
	}
	for {
		var name string
		ty := spec.typ
		pos := p.tok.Pos
		if !p.at(token.Colon) {
			name, ty, pos, err = p.declarator(spec.typ)
			if err != nil {
				return nil, err
			}
		}
		f := ctypes.Field{Name: name, Type: ty}
		if p.accept(token.Colon) {
			w, err := p.condExpr()
			if err != nil {
				return nil, err
			}
			wv, err := cast.FoldInt(p.model, w)
			if err != nil {
				return nil, p.errorf(pos, "bit-field width is not constant: %v", err)
			}
			width := wv.Int64()
			if width < 0 || width > 8*p.model.Size(ty.Unqualified()) {
				return nil, p.errorf(pos, "invalid bit-field width %d", width)
			}
			if !ty.IsInteger() {
				return nil, p.errorf(pos, "bit-field has non-integer type %s", ty)
			}
			f.BitField = true
			f.BitWidth = int(width)
		}
		if !ty.IsComplete() && !(ty.Kind == ctypes.Array && ty.ArrayLen < 0) {
			return nil, p.errorf(pos, "member %q has incomplete type %s", name, ty)
		}
		fields = append(fields, f)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.Semi); err != nil {
		return nil, err
	}
	return fields, nil
}

// enumSpecifier parses enum specifiers and registers enumeration constants.
func (p *Parser) enumSpecifier() (*ctypes.Type, error) {
	kw := p.next() // enum
	p.tagged = true
	tag := ""
	if p.at(token.Ident) {
		tag = p.next().Text
	}
	if !p.at(token.LBrace) {
		if tag == "" {
			return nil, p.errorf(kw.Pos, "enum with neither tag nor enumerator list")
		}
		if t, ok := p.tags.Lookup(tag); ok {
			if t.Kind != ctypes.Enum {
				return nil, p.errorf(kw.Pos, "tag %q redeclared as a different kind", tag)
			}
			return t, nil
		}
		// Forward enum references are a constraint violation in C, but
		// widely accepted; create an int-compatible type.
		t := &ctypes.Type{Kind: ctypes.Enum, Tag: tag}
		p.tags.Declare(tag, t)
		return t, nil
	}
	t := &ctypes.Type{Kind: ctypes.Enum, Tag: tag}
	if tag != "" {
		if _, exists := p.tags.LookupLocal(tag); exists {
			return nil, p.errorf(kw.Pos, "redefinition of enum %s", tag)
		}
		p.tags.Declare(tag, t)
	}
	p.next() // {
	next := int64(0)
	for !p.at(token.RBrace) {
		nameTok, err := p.expect(token.Ident)
		if err != nil {
			return nil, err
		}
		if p.accept(token.Assign) {
			e, err := p.condExpr()
			if err != nil {
				return nil, err
			}
			v, err := cast.FoldInt(p.model, e)
			if err != nil {
				return nil, p.errorf(nameTok.Pos, "enumerator value is not constant: %v", err)
			}
			next = v.Int64()
		}
		if !p.model.InRange(ctypes.TInt, next) {
			return nil, p.errorf(nameTok.Pos, "enumerator value %d not representable as int", next)
		}
		p.names.Declare(nameTok.Text, nameInfo{kind: nameEnumConst, val: next})
		next++
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return t, nil
}

// ---------- declarators ----------

// declOp is one derivation a declarator applies to its base type: a
// pointer, an array or a function.
type declOp struct {
	kind     ctypes.Kind  // Ptr, Array or Func
	quals    ctypes.Quals // Ptr
	n        int64        // Array: length, -1 if incomplete
	negative int64        // Array: the length, when a constant below zero
	vla      bool         // Array
	params   []ctypes.Param
	variadic bool
	oldStyle bool
	pos      token.Pos // Array: its '[', Func: its '('
}

// declarator parses a (possibly abstract) declarator against base.
func (p *Parser) declarator(base *ctypes.Type) (string, *ctypes.Type, token.Pos, error) {
	pos := p.tok.Pos
	mark := len(p.ops)
	name, vla, err := p.declaratorOps()
	if err != nil {
		return "", nil, pos, err
	}
	ops := p.ops[mark:]
	p.ops = p.ops[:mark]
	ty := base
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case ctypes.Ptr:
			ty = ctypes.PointerTo(ty).Qualified(op.quals)
		case ctypes.Array:
			if ty.Kind == ctypes.Func {
				return "", nil, pos, p.errorf(op.pos, "array of functions")
			}
			if op.negative < 0 {
				ty = ctypes.NegativeArrayOf(ty, op.negative)
			} else {
				ty = ctypes.ArrayOf(ty, op.n)
			}
			ty.VLA = op.vla
		case ctypes.Func:
			if ty.Kind == ctypes.Func {
				return "", nil, pos, p.errorf(op.pos, "function returning function")
			}
			if ty.Kind == ctypes.Array {
				return "", nil, pos, p.errorf(op.pos, "function returning array")
			}
			ty = ctypes.FuncType(ty, op.params, op.variadic)
			ty.OldStyle = op.oldStyle
		}
	}
	p.pendingVLA = vla
	return name, ty, pos, nil
}

// declaratorOps parses a pointer prefix and a direct declarator — `ident`,
// `( declarator )` or nothing (abstract), then array and function
// suffixes — and pushes its derivations onto p.ops in the order they
// apply to the base type: the pointers left to right, the suffixes right
// to left (the leftmost binds outermost), then the grouped declarator's.
// It returns the declared name and the size expression of the outermost
// variable array dimension, if any.
func (p *Parser) declaratorOps() (string, cast.Expr, error) {
	for p.at(token.Star) {
		p.next()
		var q ctypes.Quals
		for {
			switch p.tok.Kind {
			case token.KwConst:
				q |= ctypes.QConst
				p.next()
				continue
			case token.KwVolatile:
				q |= ctypes.QVolatile
				p.next()
				continue
			case token.KwRestrict:
				q |= ctypes.QRestrict
				p.next()
				continue
			}
			break
		}
		p.ops = append(p.ops, declOp{kind: ctypes.Ptr, quals: q})
	}
	var name string
	inner := len(p.ops)
	switch {
	case p.at(token.Ident):
		name = p.next().Text
	case p.at(token.LParen) && p.isGroupedDeclarator():
		p.next()
		var innerVLA cast.Expr
		var err error
		name, innerVLA, err = p.declaratorOps()
		if err != nil {
			return "", nil, err
		}
		if innerVLA != nil {
			return "", nil, p.errorf(p.tok.Pos, "variable length array in grouped declarator is not supported")
		}
		if _, err := p.expect(token.RParen); err != nil {
			return "", nil, err
		}
	}
	suffixes := len(p.ops)
	var vlaExpr cast.Expr
	for {
		switch {
		case p.at(token.LBracket):
			lb := p.next()
			// Skip qualifiers and `static` inside parameter arrays.
			for p.at(token.KwConst) || p.at(token.KwVolatile) ||
				p.at(token.KwRestrict) || p.at(token.KwStatic) {
				p.next()
			}
			var n, negative int64 = -1, 0
			var isVLA bool
			var sizeExpr cast.Expr
			switch {
			case p.at(token.RBracket):
				// incomplete []
			case p.at(token.Star) && p.ahead.Kind == token.RBracket:
				p.next()
				isVLA = true
			default:
				e, err := p.assignExpr()
				if err != nil {
					return "", nil, err
				}
				if v, err := cast.FoldInt(p.model, e); err == nil {
					n = v.Int64()
					if n < 0 && v.T.IsSigned(p.model) {
						n, negative = 0, n
					} else if n < 0 {
						// An unsigned length of 2^63 or more.
						return "", nil, p.errorf(lb.Pos, "size of array %q is too large", name)
					}
				} else {
					isVLA = true
					sizeExpr = e
				}
			}
			if _, err := p.expect(token.RBracket); err != nil {
				return "", nil, err
			}
			if isVLA {
				if vlaExpr != nil || len(p.ops) > suffixes {
					return "", nil, p.errorf(lb.Pos, "only the outermost array dimension may be variable")
				}
				vlaExpr = sizeExpr
			}
			p.ops = append(p.ops, declOp{kind: ctypes.Array, n: n, negative: negative, vla: isVLA, pos: lb.Pos})
		case p.at(token.LParen):
			lp := p.next()
			params, variadic, oldStyle, err := p.parameterList()
			if err != nil {
				return "", nil, err
			}
			p.ops = append(p.ops, declOp{kind: ctypes.Func, params: params,
				variadic: variadic, oldStyle: oldStyle, pos: lp.Pos})
		default:
			// p.ops[inner:] holds the grouped declarator's derivations,
			// then the suffixes left to right. Reversing it all puts the
			// suffixes first and in order; reversing the tail puts the
			// grouped ones back in theirs.
			slices.Reverse(p.ops[inner:])
			slices.Reverse(p.ops[inner+len(p.ops)-suffixes:])
			return name, vlaExpr, nil
		}
	}
}

// isGroupedDeclarator distinguishes `(declarator)` from a parameter list at
// the start of a direct declarator. A '(' starts a parameter list if the
// next token begins a type name or is ')'.
func (p *Parser) isGroupedDeclarator() bool {
	nxt := p.ahead
	if nxt.Kind == token.RParen {
		return false // `()` — old-style function
	}
	return !p.startsTypeName(nxt)
}

// parameterList parses the contents of a function declarator's parentheses,
// including the closing ')'.
func (p *Parser) parameterList() ([]ctypes.Param, bool, bool, error) {
	if p.accept(token.RParen) {
		return nil, false, true, nil // old-style ()
	}
	// (void) — no parameters.
	if p.at(token.KwVoid) && p.ahead.Kind == token.RParen {
		p.next()
		p.next()
		return nil, false, false, nil
	}
	var params []ctypes.Param
	variadic := false
	p.pushScope() // prototype scope (for tags declared inside)
	defer p.popScope()
	for {
		if p.accept(token.Ellipsis) {
			variadic = true
			break
		}
		spec, err := p.declSpecifiers()
		if err != nil {
			return nil, false, false, err
		}
		name, ty, pos, err := p.declarator(spec.typ)
		if err != nil {
			return nil, false, false, err
		}
		if p.pendingVLA != nil {
			p.pendingVLA = nil
			return nil, false, false, p.errorf(pos, "variable length array parameters are not supported")
		}
		params = append(params, ctypes.Param{Name: name, Type: ctypes.AdjustParam(ty)})
		if name != "" {
			p.names.Declare(name, nameInfo{kind: nameOrdinary})
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RParen); err != nil {
		return nil, false, false, err
	}
	return params, variadic, false, nil
}

// typeName parses a type-name (for casts, sizeof, compound literals).
func (p *Parser) typeName() (*ctypes.Type, error) {
	spec, err := p.declSpecifiers()
	if err != nil {
		return nil, err
	}
	if spec.storage != cast.SAuto {
		return nil, p.errorf(spec.pos, "storage class in type name")
	}
	name, ty, pos, err := p.declarator(spec.typ)
	if err != nil {
		return nil, err
	}
	if p.pendingVLA != nil {
		p.pendingVLA = nil
		return nil, p.errorf(pos, "variable length array in type name is not supported")
	}
	if name != "" {
		return nil, p.errorf(pos, "unexpected identifier %q in type name", name)
	}
	return ty, nil
}

// ---------- initializers ----------

// initializer parses an initializer: an assignment expression or a braced
// list.
func (p *Parser) initializer() (cast.Expr, error) {
	if !p.at(token.LBrace) {
		return p.assignExpr()
	}
	return p.initList()
}

func (p *Parser) initList() (*cast.InitList, error) {
	lb, err := p.expect(token.LBrace)
	if err != nil {
		return nil, err
	}
	il := &cast.InitList{}
	il.P = lb.Pos
	for !p.at(token.RBrace) {
		var item cast.InitItem
		// Designators.
		for p.at(token.Dot) || p.at(token.LBracket) {
			if p.accept(token.Dot) {
				id, err := p.expect(token.Ident)
				if err != nil {
					return nil, err
				}
				item.Designators = append(item.Designators, cast.Designator{Field: id.Text, Pos: id.Pos})
			} else {
				lb := p.next()
				e, err := p.condExpr()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(token.RBracket); err != nil {
					return nil, err
				}
				item.Designators = append(item.Designators, cast.Designator{Index: e, Pos: lb.Pos})
			}
		}
		if len(item.Designators) > 0 {
			if _, err := p.expect(token.Assign); err != nil {
				return nil, err
			}
		}
		init, err := p.initializer()
		if err != nil {
			return nil, err
		}
		item.Init = init
		il.Items = append(il.Items, item)
		if !p.accept(token.Comma) {
			break
		}
	}
	if _, err := p.expect(token.RBrace); err != nil {
		return nil, err
	}
	return il, nil
}
