package scope

import "testing"

func TestShadowAndRestore(t *testing.T) {
	var tb Table[int]
	tb.Push()
	tb.Declare("x", 1)
	tb.Declare("y", 2)
	tb.Push()
	if _, ok := tb.LookupLocal("x"); ok {
		t.Error("outer x visible as local in a new scope")
	}
	tb.Declare("x", 10)
	tb.Declare("x", 11) // redeclared in the same scope: replaced
	tb.Declare("z", 3)
	if v, _ := tb.Lookup("x"); v != 11 {
		t.Errorf("inner x = %d, want 11", v)
	}
	if v, ok := tb.LookupLocal("x"); !ok || v != 11 {
		t.Errorf("LookupLocal(x) = %d, %v", v, ok)
	}
	if v, _ := tb.Lookup("y"); v != 2 {
		t.Errorf("y = %d, want 2", v)
	}
	tb.Pop()
	if v, _ := tb.Lookup("x"); v != 1 {
		t.Errorf("x after pop = %d, want 1", v)
	}
	if _, ok := tb.Lookup("z"); ok {
		t.Error("z survived its scope")
	}
	if len(tb.binds) != 2 || len(tb.index) != 2 {
		t.Errorf("%d bindings, %d names after pop", len(tb.binds), len(tb.index))
	}
}

func TestOverBase(t *testing.T) {
	var base Table[int]
	base.Push()
	base.Declare("x", 1)
	base.Declare("y", 2)
	tb := Over(&base)
	tb.Push()
	if v, ok := tb.LookupLocal("x"); !ok || v != 1 {
		t.Errorf("file-scope LookupLocal(x) = %d, %v, want the base's 1", v, ok)
	}
	tb.Declare("x", 10) // a file-scope redeclaration shadows the base
	tb.Push()
	if _, ok := tb.LookupLocal("y"); ok {
		t.Error("base y visible as local in a block")
	}
	tb.Declare("y", 20)
	if v, _ := tb.Lookup("y"); v != 20 {
		t.Errorf("block y = %d, want 20", v)
	}
	tb.Pop()
	if v, _ := tb.Lookup("y"); v != 2 {
		t.Errorf("y after pop = %d, want the base's 2", v)
	}
	if v, _ := tb.Lookup("x"); v != 10 {
		t.Errorf("x = %d, want 10", v)
	}
	if v, _ := base.Lookup("x"); v != 1 || len(base.binds) != 2 {
		t.Errorf("base written: x = %d, %d bindings", v, len(base.binds))
	}
}
