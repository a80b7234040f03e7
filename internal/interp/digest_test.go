package interp

import (
	"testing"

	"repro/internal/cast"
	"repro/internal/driver"
)

// TestStateDigestShadowedLocals: two locals named x bound to each other's
// objects are different machine states, and the digest must say so. A
// fold keyed by name could not tell them apart.
func TestStateDigestShadowedLocals(t *testing.T) {
	prog, err := driver.Compile(`int main(void) { int x = 1; { int x = 2; } return 0; }`, "shadow.c", driver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fd := prog.Funcs["main"]
	outer := fd.Body.List[0].(*cast.DeclStmt).Decls[0].Sym
	inner := fd.Body.List[1].(*cast.Compound).List[0].(*cast.DeclStmt).Decls[0].Sym
	in := New(prog, Options{})
	f := in.pushFrame(fd)
	f.locals[outer.Slot], f.locals[inner.Slot] = 5, 6
	before := in.StateDigest()
	f.locals[outer.Slot], f.locals[inner.Slot] = 6, 5
	if in.StateDigest() == before {
		t.Error("swapping the objects of two shadowed locals left the state digest unchanged")
	}
}
