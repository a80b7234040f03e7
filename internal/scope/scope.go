// Package scope is the block-structured name table the parser and the
// checker both keep: one map from each name to its innermost binding, a
// stack of bindings that each remember the binding they shadow, and a
// mark per open scope. Opening and closing a scope allocates nothing once
// the stacks have grown; closing one restores the bindings it shadowed.
// A table may start over a base: the file-scope bindings of a unit's
// prelude, shared read-only by every table over it.
package scope

// Table maps names to values of type V across nested scopes.
type Table[V any] struct {
	index map[string]int // name → position of its innermost binding
	binds []binding[V]
	marks []int // where each open scope's bindings start
	// base holds bindings of the outermost scope that this table does
	// not: it is only read, and the table's own bindings shadow it.
	base *Table[V]
}

// Over returns an empty table whose outermost scope, once pushed, starts
// with base's bindings. base is never written through the table, so
// tables on any number of goroutines may share it.
func Over[V any](base *Table[V]) Table[V] { return Table[V]{base: base} }

type binding[V any] struct {
	name   string
	val    V
	shadow int // position of the binding this one hides, or -1
}

// Push opens a scope.
func (t *Table[V]) Push() { t.marks = append(t.marks, len(t.binds)) }

// Pop closes the innermost scope, dropping its bindings and bringing
// back the ones they shadowed.
func (t *Table[V]) Pop() {
	m := t.marks[len(t.marks)-1]
	t.marks = t.marks[:len(t.marks)-1]
	for i := len(t.binds) - 1; i >= m; i-- {
		b := &t.binds[i]
		if b.shadow < 0 {
			delete(t.index, b.name)
		} else {
			t.index[b.name] = b.shadow
		}
	}
	t.binds = t.binds[:m]
}

// Declare binds name to v in the innermost scope, replacing a binding
// the scope already has for it.
func (t *Table[V]) Declare(name string, v V) {
	if t.index == nil {
		t.index = make(map[string]int)
	}
	i, ok := t.index[name]
	if ok && i >= t.marks[len(t.marks)-1] {
		t.binds[i].val = v
		return
	}
	if !ok {
		i = -1
	}
	t.index[name] = len(t.binds)
	t.binds = append(t.binds, binding[V]{name: name, val: v, shadow: i})
}

// Lookup finds name's binding in the innermost scope that has one.
func (t *Table[V]) Lookup(name string) (V, bool) {
	if i, ok := t.index[name]; ok {
		return t.binds[i].val, true
	}
	if t.base != nil {
		return t.base.Lookup(name)
	}
	var zero V
	return zero, false
}

// LookupLocal finds name's binding in the innermost scope only.
func (t *Table[V]) LookupLocal(name string) (V, bool) {
	if i, ok := t.index[name]; ok && i >= t.marks[len(t.marks)-1] {
		return t.binds[i].val, true
	}
	if len(t.marks) == 1 && t.base != nil {
		return t.base.Lookup(name)
	}
	var zero V
	return zero, false
}
