package driver

import (
	"fmt"

	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/parser"
	"repro/internal/sema"
)

// MaxPreludes is the bound of the prelude table.
const MaxPreludes = maxPreludes

// ResetPreludes empties the prelude table, so that a test builds the
// preludes it uses.
func ResetPreludes() {
	preludes.Lock()
	preludes.m = make(map[preludeKey]*preludeEntry)
	preludes.Unlock()
}

// Preludes is the number of preludes the table holds.
func Preludes() int {
	preludes.Lock()
	defer preludes.Unlock()
	return len(preludes.m)
}

// CompileWhole is Compile as it was before preludes: every unit's whole
// text, its built-in headers' included, through cpp.Preprocessor.Run,
// parser.Parse and sema.Check. Tests hold Compile to it.
func CompileWhole(src, file string, opts Options) (*sema.Program, error) {
	model := opts.Model
	if model == nil {
		model = ctypes.LP64()
	}
	pp := cpp.New(defaultResolvers)
	if *model != lp64 {
		defineModel(pp, model)
	}
	for _, d := range opts.Defines {
		_ = pp.Define(d)
	}
	expanded, err := pp.Run(src, file)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	tu, err := parser.Parse(expanded, file, model)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := sema.Check(tu, model)
	if err != nil {
		return nil, fmt.Errorf("typecheck: %w", err)
	}
	return prog, nil
}
