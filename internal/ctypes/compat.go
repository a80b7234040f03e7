package ctypes

// Compatible reports whether a and b are compatible types (C11 §6.2.7),
// ignoring top-level qualifiers on object types but honoring them on
// pointed-to types.
func Compatible(a, b *Type) bool { return compatible(a, b, true) }

func compatible(a, b *Type, ignoreTopQual bool) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if !ignoreTopQual && a.Qual != b.Qual {
		return false
	}
	if a.Kind != b.Kind {
		// Enum types are compatible with their underlying int type.
		if (a.Kind == Enum && b.Kind == Int) || (a.Kind == Int && b.Kind == Enum) {
			return true
		}
		return false
	}
	switch a.Kind {
	case Ptr:
		return compatible(a.Elem, b.Elem, false)
	case Array:
		if a.ArrayLen >= 0 && b.ArrayLen >= 0 && a.ArrayLen != b.ArrayLen {
			return false
		}
		return compatible(a.Elem, b.Elem, false)
	case Struct, Union:
		// Same tag within one translation unit means the same type object;
		// distinct type objects with the same tag arise across units, which
		// we don't link. Structural equivalence for anonymous types.
		if a.Tag != "" || b.Tag != "" {
			return a == b || (a.Tag == b.Tag && sameFields(a, b))
		}
		return sameFields(a, b)
	case Func:
		if !compatible(a.Elem, b.Elem, true) {
			return false
		}
		if a.OldStyle || b.OldStyle {
			return true
		}
		if a.Variadic != b.Variadic || len(a.Params) != len(b.Params) {
			return false
		}
		for i := range a.Params {
			if !compatible(a.Params[i].Type.Unqualified(), b.Params[i].Type.Unqualified(), true) {
				return false
			}
		}
		return true
	}
	return true
}

func sameFields(a, b *Type) bool {
	if a.Incomplete || b.Incomplete {
		return a.Incomplete == b.Incomplete
	}
	if len(a.Fields) != len(b.Fields) {
		return false
	}
	for i := range a.Fields {
		fa, fb := a.Fields[i], b.Fields[i]
		if fa.Name != fb.Name || !compatible(fa.Type, fb.Type, false) {
			return false
		}
		if fa.BitField != fb.BitField || fa.BitWidth != fb.BitWidth {
			return false
		}
	}
	return true
}

// AliasAllowed reports whether an object whose effective type is obj may be
// accessed through an lvalue of type lv (C11 §6.5:7, the strict-aliasing
// rule). Access through character types is always allowed.
func AliasAllowed(lv, obj *Type) bool {
	lv = lv.Unqualified()
	obj = obj.Unqualified()
	if lv.IsCharTy() {
		return true
	}
	if Compatible(lv, obj) {
		return true
	}
	// Signed/unsigned counterpart of a compatible type.
	if lv.IsInteger() && obj.IsInteger() && correspondingSigns(lv.Kind, obj.Kind) {
		return true
	}
	// A member type of an aggregate or union.
	if obj.Kind == Struct || obj.Kind == Union {
		for _, f := range obj.Fields {
			if AliasAllowed(lv, f.Type) {
				return true
			}
		}
	}
	if obj.Kind == Array {
		return AliasAllowed(lv, obj.Elem)
	}
	return false
}

func correspondingSigns(a, b Kind) bool {
	if a == b {
		return true
	}
	return unsignedOf(a) == b || unsignedOf(b) == a
}
