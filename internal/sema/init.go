package sema

import (
	"repro/internal/cast"
	"repro/internal/ctypes"
	"repro/internal/token"
)

// checkInit validates d's initializer, builds its initialization plan, and
// completes d's type if the initializer determines an array length.
func (c *checker) checkInit(d *cast.Decl) error {
	switch init := d.Init.(type) {
	case *cast.InitList:
		// C11 6.7.9p3: the object must have a complete type, or be an
		// array of unknown size whose elements do.
		obj := d.Type
		if obj.Kind == ctypes.Array && obj.ArrayLen < 0 {
			obj = obj.Elem
		}
		if !obj.IsComplete() {
			return c.errorf(d.P, "variable %q has incomplete type %s", d.Name, d.Type)
		}
		ty, plan, err := c.buildInitPlan(d.Type, init, d.P)
		if err != nil {
			return err
		}
		d.Type = ty
		d.Sym.Type = ty
		d.Plan = plan
		d.ZeroFill = true
		return nil
	case *cast.StringLit:
		if _, err := c.expr(init); err != nil {
			return err
		}
		if d.Type.Kind == ctypes.Array && d.Type.Elem.IsCharTy() {
			n := d.Type.ArrayLen
			if n < 0 {
				n = int64(len(init.Value)) + 1
				d.Type = ctypes.ArrayOf(d.Type.Elem, n).Qualified(d.Type.Qual)
				d.Sym.Type = d.Type
			}
			if int64(len(init.Value)) > n {
				return c.errorf(d.P, "initializer string for %q is too long (%d > %d)", d.Name, len(init.Value), n)
			}
			d.Plan = []cast.InitAssign{{Offset: 0, Type: d.Type, Expr: init}}
			d.ZeroFill = true
			return nil
		}
		// char *p = "str";
		if err := c.checkAssignable(d.Type, init, d.P); err != nil {
			return err
		}
		d.Plan = []cast.InitAssign{{Offset: 0, Type: d.Type, Expr: init}}
		return nil
	default:
		if _, err := c.expr(init); err != nil {
			return err
		}
		if err := c.checkAssignable(d.Type, init, d.P); err != nil {
			return err
		}
		d.Plan = []cast.InitAssign{{Offset: 0, Type: d.Type, Expr: init}}
		return nil
	}
}

// stream walks the items of one braced initializer list.
type stream struct {
	items []cast.InitItem
	pos   int
}

func (st *stream) more() bool { return st.pos < len(st.items) }

func (st *stream) peek() *cast.InitItem {
	return &st.items[st.pos]
}

func (st *stream) take() *cast.InitItem {
	it := &st.items[st.pos]
	st.pos++
	return it
}

// buildInitPlan resolves a braced initializer list for ty, returning the
// (possibly completed) type and the flat plan.
func (c *checker) buildInitPlan(ty *ctypes.Type, il *cast.InitList, pos token.Pos) (*ctypes.Type, []cast.InitAssign, error) {
	b := &planner{c: c}
	st := &stream{items: il.Items}
	outTy, err := b.fill(ty, 0, st, true)
	if err != nil {
		return nil, nil, err
	}
	if st.more() {
		return nil, nil, c.errorf(st.peek().Init.Pos(), "excess elements in initializer")
	}
	return outTy, b.plan, nil
}

type planner struct {
	c    *checker
	plan []cast.InitAssign
}

func (b *planner) emit(offset int64, ty *ctypes.Type, e cast.Expr) {
	b.plan = append(b.plan, cast.InitAssign{Offset: offset, Type: ty, Expr: e})
}

// fill consumes items from st to initialize an object of type ty at offset.
// braced reports whether st is the object's own braced list (designators
// allowed, and st must be fully consumable); when false, fill consumes just
// as many items as the object needs (flattened initialization) and leaves
// the rest. The returned type completes unsized arrays.
func (b *planner) fill(ty *ctypes.Type, offset int64, st *stream, braced bool) (*ctypes.Type, error) {
	c := b.c
	switch ty.Kind {
	case ctypes.Array:
		return b.fillArray(ty, offset, st, braced)
	case ctypes.Struct:
		return ty, b.fillStruct(ty, offset, st, braced)
	case ctypes.Union:
		return ty, b.fillUnion(ty, offset, st, braced)
	default:
		// Scalar.
		if !st.more() {
			return ty, nil
		}
		it := st.take()
		if len(it.Designators) > 0 {
			return nil, c.errorf(it.Designators[0].Pos, "designator in initializer for scalar type %s", ty)
		}
		switch init := it.Init.(type) {
		case *cast.InitList:
			// Braces around a scalar: { expr }.
			inner := &stream{items: init.Items}
			if _, err := b.fill(ty, offset, inner, true); err != nil {
				return nil, err
			}
			if inner.more() {
				return nil, c.errorf(init.P, "excess elements in scalar initializer")
			}
			return ty, nil
		default:
			if _, err := c.expr(init); err != nil {
				return nil, err
			}
			if err := c.checkAssignable(ty, init, init.Pos()); err != nil {
				return nil, err
			}
			b.emit(offset, ty, init)
			return ty, nil
		}
	}
}

func (b *planner) fillArray(ty *ctypes.Type, offset int64, st *stream, braced bool) (*ctypes.Type, error) {
	c := b.c
	elem := ty.Elem
	elemSize := int64(0)
	if elem.IsComplete() {
		// The declared type passed the checker's sized() validation, so
		// member layouts are computable — Size here asserts an invariant.
		elemSize = c.model.Size(elem)
	}
	n := ty.ArrayLen // may be -1 (unsized; only legal when braced at top)
	var idx, maxIdx int64

	// Whole-array string literal: {"abc"} or flattened "abc".
	if st.more() && len(st.peek().Designators) == 0 {
		if lit, ok := st.peek().Init.(*cast.StringLit); ok && elem.IsCharTy() {
			st.take()
			if _, err := c.expr(lit); err != nil {
				return nil, err
			}
			if n < 0 {
				n = int64(len(lit.Value)) + 1
				ty = ctypes.ArrayOf(elem, n).Qualified(ty.Qual)
			}
			if int64(len(lit.Value)) > n {
				return nil, c.errorf(lit.P, "initializer string too long")
			}
			b.emit(offset, ty, lit)
			return ty, nil
		}
	}

	for st.more() {
		it := st.peek()
		if len(it.Designators) > 0 {
			if !braced {
				return ty, nil // designator belongs to an enclosing list
			}
			d := it.Designators[0]
			if d.Index == nil {
				return nil, c.errorf(d.Pos, "field designator in array initializer")
			}
			cv, err := cast.FoldInt(c.model, d.Index)
			if err != nil {
				return nil, c.errorf(d.Pos, "array designator is not constant: %v", err)
			}
			v := cv.Int64()
			if v < 0 || (n >= 0 && v >= n) {
				return nil, c.errorf(d.Pos, "array designator index %d out of bounds", v)
			}
			idx = v
			// Handle the remaining designators by descending.
			st.take()
			if err := b.designated(elem, offset+idx*elemSize, it.Designators[1:], it.Init); err != nil {
				return nil, err
			}
			if idx+1 > maxIdx {
				maxIdx = idx + 1
			}
			idx++
			continue
		}
		if n >= 0 && idx >= n {
			if braced {
				return nil, c.errorf(it.Init.Pos(), "excess elements in array initializer")
			}
			break
		}
		if innerList, ok := it.Init.(*cast.InitList); ok {
			st.take()
			inner := &stream{items: innerList.Items}
			if _, err := b.fill(elem, offset+idx*elemSize, inner, true); err != nil {
				return nil, err
			}
			if inner.more() {
				return nil, c.errorf(innerList.P, "excess elements in initializer")
			}
		} else if elem.IsAggregate() {
			// Element is itself an aggregate: maybe a whole-aggregate
			// expression, else flattened fill.
			if _, err := c.expr(it.Init); err != nil {
				return nil, err
			}
			if ctypes.Compatible(elem, it.Init.Type()) {
				st.take()
				b.emit(offset+idx*elemSize, elem, it.Init)
			} else if lit, ok := it.Init.(*cast.StringLit); ok && elem.Kind == ctypes.Array && elem.Elem.IsCharTy() {
				st.take()
				b.emit(offset+idx*elemSize, elem, lit)
			} else {
				if _, err := b.fill(elem, offset+idx*elemSize, st, false); err != nil {
					return nil, err
				}
			}
		} else {
			if _, err := b.fill(elem, offset+idx*elemSize, st, false); err != nil {
				return nil, err
			}
		}
		idx++
		if idx > maxIdx {
			maxIdx = idx
		}
	}
	if n < 0 {
		if !braced {
			return nil, c.errorf(token.Pos{}, "cannot determine size of unsized array")
		}
		n = maxIdx
		if n == 0 {
			n = 1
		}
		ty = ctypes.ArrayOf(elem, n).Qualified(ty.Qual)
	}
	return ty, nil
}

func (b *planner) fillStruct(ty *ctypes.Type, offset int64, st *stream, braced bool) error {
	c := b.c
	c.model.Size(ty) // force layout
	fi := 0
	for st.more() && fi <= len(ty.Fields) {
		it := st.peek()
		if len(it.Designators) > 0 {
			if !braced {
				return nil
			}
			d := it.Designators[0]
			if d.Field == "" {
				return c.errorf(d.Pos, "array designator in struct initializer")
			}
			found := -1
			for i, f := range ty.Fields {
				if f.Name == d.Field {
					found = i
					break
				}
			}
			if found < 0 {
				return c.errorf(d.Pos, "no member named %q in %s", d.Field, ty)
			}
			st.take()
			f := ty.Fields[found]
			if err := b.designated(f.Type, offset+f.Offset, it.Designators[1:], it.Init); err != nil {
				return err
			}
			fi = found + 1
			continue
		}
		if fi >= len(ty.Fields) {
			if braced {
				return c.errorf(it.Init.Pos(), "excess elements in struct initializer")
			}
			return nil
		}
		f := ty.Fields[fi]
		fi++
		if f.Name == "" && !(f.Type.Kind == ctypes.Struct || f.Type.Kind == ctypes.Union) {
			continue // unnamed padding-like member
		}
		if err := b.fillMember(f.Type, offset+f.Offset, st); err != nil {
			return err
		}
	}
	return nil
}

func (b *planner) fillUnion(ty *ctypes.Type, offset int64, st *stream, braced bool) error {
	c := b.c
	c.model.Size(ty)
	if !st.more() {
		return nil
	}
	it := st.peek()
	if len(it.Designators) > 0 && braced {
		d := it.Designators[0]
		if d.Field == "" {
			return c.errorf(d.Pos, "array designator in union initializer")
		}
		for _, f := range ty.Fields {
			if f.Name == d.Field {
				st.take()
				return b.designated(f.Type, offset+f.Offset, it.Designators[1:], it.Init)
			}
		}
		return c.errorf(d.Pos, "no member named %q in %s", d.Field, ty)
	}
	if len(ty.Fields) == 0 {
		return nil
	}
	return b.fillMember(ty.Fields[0].Type, offset, st)
}

// fillMember initializes one member from the stream: braced sub-list,
// whole-aggregate expression, or flattened descent.
func (b *planner) fillMember(ft *ctypes.Type, offset int64, st *stream) error {
	c := b.c
	it := st.peek()
	if innerList, ok := it.Init.(*cast.InitList); ok {
		st.take()
		inner := &stream{items: innerList.Items}
		if _, err := b.fill(ft, offset, inner, true); err != nil {
			return err
		}
		if inner.more() {
			return c.errorf(innerList.P, "excess elements in initializer")
		}
		return nil
	}
	if ft.IsAggregate() {
		if lit, ok := it.Init.(*cast.StringLit); ok && ft.Kind == ctypes.Array && ft.Elem.IsCharTy() {
			st.take()
			if _, err := c.expr(lit); err != nil {
				return err
			}
			if int64(len(lit.Value)) > ft.ArrayLen {
				return c.errorf(lit.P, "initializer string too long")
			}
			b.emit(offset, ft, lit)
			return nil
		}
		if _, err := c.expr(it.Init); err != nil {
			return err
		}
		if ctypes.Compatible(ft, it.Init.Type()) {
			st.take()
			b.emit(offset, ft, it.Init)
			return nil
		}
		_, err := b.fill(ft, offset, st, false)
		return err
	}
	_, err := b.fill(ft, offset, st, false)
	return err
}

// designated applies the remaining designators of one item, then
// initializes the final target with the item's initializer.
func (b *planner) designated(ty *ctypes.Type, offset int64, rest []cast.Designator, init cast.Expr) error {
	c := b.c
	for _, d := range rest {
		switch {
		case d.Field != "":
			if ty.Kind != ctypes.Struct && ty.Kind != ctypes.Union {
				return c.errorf(d.Pos, "field designator on non-struct type %s", ty)
			}
			f, ok := c.model.FieldByName(ty, d.Field)
			if !ok {
				return c.errorf(d.Pos, "no member named %q in %s", d.Field, ty)
			}
			ty = f.Type
			offset += f.Offset
		default:
			if ty.Kind != ctypes.Array {
				return c.errorf(d.Pos, "array designator on non-array type %s", ty)
			}
			cv, err := cast.FoldInt(c.model, d.Index)
			if err != nil {
				return c.errorf(d.Pos, "array designator is not constant: %v", err)
			}
			v := cv.Int64()
			if v < 0 || (ty.ArrayLen >= 0 && v >= ty.ArrayLen) {
				return c.errorf(d.Pos, "array designator index %d out of bounds", v)
			}
			offset += v * c.model.Size(ty.Elem)
			ty = ty.Elem
		}
	}
	// Initialize the target with the single initializer.
	one := &stream{items: []cast.InitItem{{Init: init}}}
	if _, err := b.fill(ty, offset, one, true); err != nil {
		return err
	}
	if one.more() {
		return c.errorf(init.Pos(), "excess elements in designated initializer")
	}
	return nil
}
