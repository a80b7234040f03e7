package sema

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/cast"
	"repro/internal/mem"
)

// FuncTable lists a program's function designators in declaration order:
// file-scope declarations and definitions as they appear in the
// translation unit, then functions declared only at block scope, by
// name. A run allocates the designators before any other object, in
// table order, so designator i is object i+1 on every run, and so are
// the synthetic addresses and state digests that depend on it.
type FuncTable struct {
	entries []funcEntry
}

// funcEntry is designator i's entry, plus the ith step of the table's
// name order. One slice holds both, so a table is one allocation.
type funcEntry struct {
	sym    *cast.Symbol // the designated function's file-scope symbol
	byName int32        // the index of the ith designator by name
}

// Len is the number of designators.
func (t *FuncTable) Len() int { return len(t.entries) }

// Name is designator i's function.
func (t *FuncTable) Name(i int) string { return t.entries[i].sym.Name }

// Lookup returns the index of name's designator.
func (t *FuncTable) Lookup(name string) (int, bool) {
	k := sort.Search(len(t.entries), func(k int) bool { return t.Name(int(t.entries[k].byName)) >= name })
	if k == len(t.entries) || t.Name(int(t.entries[k].byName)) != name {
		return 0, false
	}
	return int(t.entries[k].byName), true
}

// Ptr returns the pointer to designator i.
func (t *FuncTable) Ptr(i int) mem.Ptr {
	return mem.Ptr{T: t.entries[i].sym.Type.Decay(), Base: mem.ObjID(i + 1)}
}

// Designators returns the program's function-designator table. It is
// derived data, built on first use and then shared by every run of the
// program; it is not part of the program's encoded form.
func (p *Program) Designators() *FuncTable {
	p.funcTabOnce.Do(func() { p.funcTab = buildFuncTable(p) })
	return &p.funcTab
}

func buildFuncTable(p *Program) FuncTable {
	var syms []*cast.Symbol
	seen := make(map[*cast.Symbol]bool)
	for _, n := range p.Unit.Order {
		var name string
		switch n := n.(type) {
		case *cast.Decl:
			name = n.Name
		case *cast.FuncDef:
			name = n.Name
		}
		if sym, ok := p.Symbols[name]; ok && sym.Kind == cast.SymFunc && !seen[sym] {
			seen[sym] = true
			syms = append(syms, sym)
		}
	}
	// Functions declared only at block scope, by name.
	var rest []*cast.Symbol
	for _, sym := range p.Symbols {
		if sym.Kind == cast.SymFunc && !seen[sym] {
			rest = append(rest, sym)
		}
	}
	slices.SortFunc(rest, func(a, b *cast.Symbol) int { return strings.Compare(a.Name, b.Name) })
	syms = append(syms, rest...)

	byName := make([]int32, len(syms))
	for i := range byName {
		byName[i] = int32(i)
	}
	slices.SortFunc(byName, func(a, b int32) int { return strings.Compare(syms[a].Name, syms[b].Name) })
	t := FuncTable{entries: make([]funcEntry, len(syms))}
	for i, sym := range syms {
		t.entries[i].sym = sym
		t.entries[i].byName = byName[i]
	}
	return t
}
