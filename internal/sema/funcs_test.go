package sema_test

import (
	"testing"

	"repro/internal/driver"
	"repro/internal/mem"
)

// TestDesignatorOrder: designators follow the first file-scope
// declaration of each function, then functions declared only at block
// scope by name, and every name looks up its own index.
func TestDesignatorOrder(t *testing.T) {
	prog, err := driver.Compile(`
int zeta(int);
static int alpha(void) { return 1; }
int zeta(int x) { return x; }
int counter;
int main(void) {
	int mid(void), beta(void);
	return alpha() + zeta(0);
}`, "order.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tab := prog.Designators()
	want := []string{"zeta", "alpha", "main", "beta", "mid"}
	if tab.Len() != len(want) {
		t.Fatalf("%d designators, want %v", tab.Len(), want)
	}
	for i, name := range want {
		if got := tab.Name(i); got != name {
			t.Errorf("designator %d is %s, want %s", i, got, name)
		}
		if j, ok := tab.Lookup(name); !ok || j != i {
			t.Errorf("Lookup(%s) = %d, %v; want %d", name, j, ok, i)
		}
		if p := tab.Ptr(i); p.Base != mem.ObjID(i+1) || p.Off != 0 {
			t.Errorf("designator %d's pointer is %v, want object %d", i, tab.Ptr(i), i+1)
		}
	}
	for _, name := range []string{"counter", "aaa", "zzz", ""} {
		if _, ok := tab.Lookup(name); ok {
			t.Errorf("Lookup(%q) found a designator", name)
		}
	}
	if prog.Designators() != tab {
		t.Error("the table is built more than once")
	}
}
