package driver

import (
	"strings"
	"sync"

	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/fault"
	"repro/internal/parser"
	"repro/internal/sema"
)

// A prelude is the frontend's state after a unit's leading run of
// built-in includes (cpp.Lead): the macros then defined and where the
// preprocessor's output stands, the declarations the headers parse to and
// the names they bind, and the symbols checking them makes. Compile
// continues every unit from the prelude of its run instead of splicing,
// lexing, parsing and checking the headers' text again; a unit with no
// run continues from the empty prelude of its model and definitions.
//
// What a header means depends on the macros in force when it is
// included, so a prelude serves only the macro state it was built in.
// Before a leading run only the model's data-model macros and
// Options.Defines are defined, and both are in the key; a unit that
// defines a macro before its includes has no run. Preludes are built once
// per process and only read after, so compiles on any number of
// goroutines share them.
type prelude struct {
	cpp    *cpp.Prelude
	parser *parser.Prelude
	sema   *sema.Prelude
}

type preludeKey struct {
	model   ctypes.Model
	defines string // Options.Defines, each followed by a NUL
	headers string // the run's headers, each followed by a NUL
}

// maxPreludes bounds the table. The suite and torture units start with
// 12 distinct runs besides the empty one, about 18 kB of heap each per
// model; the key also holds the definitions, which a server takes from
// its requests.
const maxPreludes = 64

var preludes = struct {
	sync.Mutex
	m map[preludeKey]*preludeEntry
}{m: make(map[preludeKey]*preludeEntry)}

type preludeEntry struct {
	once sync.Once
	p    *prelude
	err  error
}

// preludeFor returns the prelude of including headers under model and
// defines, building it on first use. Once the table is full, a prelude it
// does not hold is not kept: a nonempty run's is not built (nil, and the
// unit compiles from its whole text, which costs less than building a
// prelude for one unit), and the empty run's is built for the caller
// alone.
func preludeFor(model *ctypes.Model, defines, headers []string) (*prelude, error) {
	key := preludeKey{model: *model, defines: joinNUL(defines), headers: joinNUL(headers)}
	preludes.Lock()
	e := preludes.m[key]
	if e == nil {
		if len(preludes.m) >= maxPreludes {
			preludes.Unlock()
			if len(headers) > 0 {
				return nil, nil
			}
			return buildPrelude(model, defines, nil)
		}
		e = new(preludeEntry)
		preludes.m[key] = e
	}
	preludes.Unlock()
	e.once.Do(func() { e.p, e.err = buildPrelude(model, defines, headers) })
	return e.p, e.err
}

// joinNUL joins list into a new string, each element followed by a NUL,
// which no header name or definition holds.
func joinNUL(list []string) string {
	n := 0
	for _, s := range list {
		n += len(s) + 1
	}
	var b strings.Builder
	b.Grow(n)
	for _, s := range list {
		b.WriteString(s)
		b.WriteByte(0)
	}
	return b.String()
}

// buildPrelude runs the frontend over the includes of headers alone. A
// failure of any stage, a panic included, means no prelude.
func buildPrelude(model *ctypes.Model, defines, headers []string) (pre *prelude, err error) {
	defer fault.Recover(fault.StageCompile, "<prelude>", &err)
	pp := cpp.New(cheaders.Resolver())
	if *model != lp64 {
		defineModel(pp, model)
	}
	for _, d := range defines {
		// A malformed definition, such as one whose name is not an
		// identifier, could never be expanded; it is skipped.
		_ = pp.Define(d)
	}
	pre = new(prelude)
	var text string
	if pre.cpp, text, err = pp.Prelude(headers); err != nil {
		return nil, err
	}
	if pre.parser, err = parser.ParsePrelude(text, model); err != nil {
		return nil, err
	}
	if pre.sema, err = sema.CheckPrelude(pre.parser.Unit(), model); err != nil {
		return nil, err
	}
	return pre, nil
}
