package main

import (
	"context"
	"time"

	"repro/internal/absint"
	"repro/internal/artifact"
	"repro/internal/cast"
	"repro/internal/cheaders"
	"repro/internal/cpp"
	"repro/internal/ctypes"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/lexer"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/sema"
	"repro/internal/suite"
	"repro/internal/tools"
	_ "repro/internal/vm" // registers the "vm" engine
)

// stage sums one layer's calls: wall time, allocated objects, calls.
type stage struct {
	us, allocs, n float64
}

// call times fn inside a benchmark-side span named name and adds its
// time and allocations to st.
func (st *stage) call(ctx context.Context, name string, fn func(context.Context)) {
	ctx, sp := obs.StartSpan(ctx, name)
	a0 := heapAllocs()
	t0 := time.Now()
	fn(ctx)
	st.us += float64(time.Since(t0)) / float64(time.Microsecond)
	st.allocs += heapAllocs() - a0
	st.n++
	sp.End()
}

func (st *stage) perCall() float64   { return ratio(st.us, st.n) }
func (st *stage) allocsPer() float64 { return ratio(st.allocs, st.n) }

// probeLayers measures each layer from outside by calling its public
// entry points on the corpus: the frontend stages and the artifact codec
// on every suite unit, the four tools and the abstract interpreter on
// the Juliet programs, and the interpreter (tree walker and vm) on the
// torture programs with the kcc profile. Every call gets a benchmark-side
// span; each unit is one trace.
func probeLayers(ctx context.Context, m metricSet, tr *tracer, cfg *config) {
	j, o := suite.Juliet(), suite.Own()
	torture := suite.Torture()
	if cfg.tiny {
		j.Cases, o.Cases, torture = j.Cases[:4], o.Cases[:4], torture[:2]
	}
	model := ctypes.LP64()
	// The resolver chain driver.Compile builds when no includes are given.
	resolver := cpp.ChainResolver{cheaders.Resolver(), cpp.FSResolver{}}

	var pp, lex, parse, check, enc, dec stage
	var outBytes, tokens, encBytes float64
	compile := func(ctx context.Context, src, file string) *sema.Program {
		var out string
		var err error
		pp.call(ctx, "cpp.Run", func(context.Context) { out, err = cpp.New(resolver).Run(src, file) })
		if err != nil {
			return nil
		}
		outBytes += float64(len(out))
		lex.call(ctx, "lexer.Tokens", func(context.Context) {
			toks, _ := lexer.Tokens(out, file)
			tokens += float64(len(toks))
		})
		var tu *cast.TranslationUnit
		parse.call(ctx, "parser.Parse", func(context.Context) { tu, err = parser.Parse(out, file, model) })
		if err != nil {
			return nil
		}
		var prog *sema.Program
		check.call(ctx, "sema.Check", func(context.Context) { prog, _ = sema.Check(tu, model) })
		return prog
	}

	type unit struct {
		file string
		prog *sema.Program
	}
	var julietProgs []unit
	for si, s := range []*suite.Suite{j, o} {
		for _, c := range s.Cases {
			uctx, sp := tr.op(ctx, "probe.unit")
			prog := compile(uctx, c.Source, c.Name+".c")
			if prog != nil {
				var data []byte
				enc.call(uctx, "artifact.Encode", func(context.Context) { data, _ = artifact.Encode(prog) })
				encBytes += float64(len(data))
				dec.call(uctx, "artifact.Decode", func(context.Context) { _, _ = artifact.Decode(data) })
				if si == 0 {
					julietProgs = append(julietProgs, unit{c.Name + ".c", prog})
				}
			}
			sp.End()
		}
	}
	m.set("cpp.us_per_unit", pp.perCall(), "us")
	m.set("cpp.allocs_per_unit", pp.allocsPer(), "count")
	m.set("cpp.out_kb_per_unit", ratio(outBytes, pp.n)/1024, "kB")
	m.set("lexer.us_per_unit", lex.perCall(), "us")
	m.set("lexer.tokens_per_unit", ratio(tokens, lex.n), "count")
	// Parse lexes its input itself; the parser's own share is the rest.
	m.set("parser.us_per_unit", ratio(parse.us-lex.us, parse.n), "us")
	m.set("parser.allocs_per_unit", ratio(parse.allocs-lex.allocs, parse.n), "count")
	m.set("sema.us_per_unit", check.perCall(), "us")
	m.set("sema.allocs_per_unit", check.allocsPer(), "count")
	m.set("artifact.encode_us", enc.perCall(), "us")
	m.set("artifact.decode_us", dec.perCall(), "us")
	m.set("artifact.kb_per_unit", ratio(encBytes, enc.n)/1024, "kB")

	// tools.All's column order; value-analysis is the interpreter-mode
	// value analysis the figures run.
	names := []string{"valgrind", "checkpointer", "value-analysis", "kcc"}
	for ti, t := range tools.All(tools.Config{}) {
		var st stage
		for _, u := range julietProgs {
			pctx, sp := tr.op(ctx, "probe.tool")
			st.call(pctx, "tools."+names[ti], func(ctx context.Context) {
				t.AnalyzeProgram(ctx, u.prog, u.file)
			})
			sp.End()
		}
		m.set("tools."+names[ti]+".us_per_cell", st.perCall(), "us")
	}
	var ai stage
	for _, u := range julietProgs {
		pctx, sp := tr.op(ctx, "probe.absint")
		ai.call(pctx, "absint.Analyze", func(context.Context) { absint.Analyze(u.prog) })
		sp.End()
	}
	m.set("absint.us_per_unit", ai.perCall(), "us")

	var tree, vmRun stage
	var steps float64
	for _, t := range torture {
		prog, err := driver.Compile(t.Source, t.Name+".c", driver.Options{})
		if err != nil {
			logFailure("probe: %s does not compile: %v", t.Name, err)
			continue
		}
		pctx, sp := tr.op(ctx, "probe.interp")
		var res interp.Result
		tree.call(pctx, "interp.RunMachine", func(context.Context) {
			in := interp.New(prog, interp.Options{Profile: interp.KCCProfile()})
			res = in.RunMachine()
			steps += float64(in.Steps())
		})
		if res.UB != nil || res.Err != nil || res.ExitCode != t.ExitCode || res.Output != t.Output {
			logFailure("probe: %s: tree walker gives exit %d, want %d", t.Name, res.ExitCode, t.ExitCode)
		}
		vmRun.call(pctx, "interp.RunMachine.vm", func(context.Context) {
			res = interp.New(prog, interp.Options{Engine: "vm", Profile: interp.KCCProfile()}).RunMachine()
		})
		if res.UB != nil || res.Err != nil || res.ExitCode != t.ExitCode || res.Output != t.Output {
			logFailure("probe: %s: vm gives exit %d, want %d", t.Name, res.ExitCode, t.ExitCode)
		}
		sp.End()
	}
	m.set("interp.us_per_run", tree.perCall(), "us")
	m.set("interp.steps_per_s", ratio(steps, tree.us/1e6), "1/s")
	m.set("interp.allocs_per_step", ratio(tree.allocs, steps), "count")
	m.set("interp.vm.us_per_run", vmRun.perCall(), "us")
}
