package artifact_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	undefc "repro"
	"repro/internal/artifact"
	"repro/internal/cast"
	"repro/internal/driver"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/suite"
	_ "repro/internal/vm" // registers the "vm" engine
)

// trickySrc exercises every corner the codec must survive: recursive
// struct types, bitfields, designated initializers, compound literals,
// switch case lists (shared statement nodes), labels and gotos
// (FuncDef.Labels sharing), enum constants, function pointers (the
// Symbol↔FuncDef cycle), string literals, and VLAs.
const trickySrc = `
struct node { struct node *next; int v : 5; unsigned pad : 3; };
enum color { RED, GREEN = 7, BLUE };
typedef int (*binop)(int, int);
static const char *msg = "hi\0there";
int add(int a, int b) { return a + b; }
int pick(int x) {
	switch (x) {
	case 1: return 10;
	case 2: return 20;
	default: return -1;
	}
}
int main(void) {
	struct node n = { .v = 3, .next = 0 };
	n.next = &n;
	int arr[3] = { [2] = 5 };
	int vla_n = 2;
	int vla[vla_n];
	vla[0] = (int){ 4 };
	binop f = add;
	int acc = f(arr[2], n.next->v) + pick(GREEN == 7 ? 2 : 1) + vla[0];
	if (msg[0] != 'h') acc++;
	goto out;
out:
	return acc == 5 + 3 + 20 + 4 ? 0 : 1;
}
`

func compileTricky(t *testing.T) *undefc.Program {
	t.Helper()
	prog, err := undefc.Compile(trickySrc, "tricky.c", undefc.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestEncodeDeterministicAndFixedPoint(t *testing.T) {
	prog := compileTricky(t)
	a, err := artifact.Encode(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b, err := artifact.Encode(prog)
	if err != nil {
		t.Fatalf("encode again: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("Encode is not deterministic: %d vs %d bytes differ", len(a), len(b))
	}
	dec, err := artifact.Decode(a)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	c, err := artifact.Encode(dec)
	if err != nil {
		t.Fatalf("re-encode decoded: %v", err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("encode∘decode∘encode is not a fixed point: %d vs %d bytes", len(a), len(c))
	}
}

// collectStmts walks a statement tree and records every node by identity.
func collectStmts(s cast.Stmt, seen map[cast.Stmt]bool) {
	if s == nil || seen[s] {
		return
	}
	seen[s] = true
	switch s := s.(type) {
	case *cast.Compound:
		for _, st := range s.List {
			collectStmts(st, seen)
		}
	case *cast.If:
		collectStmts(s.Then, seen)
		collectStmts(s.Else, seen)
	case *cast.While:
		collectStmts(s.Body, seen)
	case *cast.DoWhile:
		collectStmts(s.Body, seen)
	case *cast.For:
		collectStmts(s.Init, seen)
		collectStmts(s.Body, seen)
	case *cast.Switch:
		collectStmts(s.Body, seen)
	case *cast.Case:
		collectStmts(s.Stmt, seen)
	case *cast.Default:
		collectStmts(s.Stmt, seen)
	case *cast.Label:
		collectStmts(s.Stmt, seen)
	}
}

func TestDecodePreservesSharing(t *testing.T) {
	prog := compileTricky(t)
	data, err := artifact.Encode(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := artifact.Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}

	// Symbol ↔ FuncDef cycles and map/list aliasing.
	for name, f := range dec.Funcs {
		if f.Sym == nil || f.Sym.FuncDef != f {
			t.Errorf("func %s: Sym.FuncDef cycle broken", name)
		}
		if dec.Symbols[name] != f.Sym {
			t.Errorf("func %s: Symbols map does not alias FuncDef.Sym", name)
		}
	}
	// Unit.Funcs and the Funcs map must be the same objects.
	for _, f := range dec.Unit.Funcs {
		if dec.Funcs[f.Name] != f {
			t.Errorf("func %s: Unit.Funcs and Funcs map diverged", f.Name)
		}
	}
	// Unit.Order interleaves the same pointers as Unit.Decls/Unit.Funcs.
	ordered := make(map[any]bool)
	for _, n := range dec.Unit.Order {
		ordered[n] = true
	}
	for _, d := range dec.Unit.Decls {
		if !ordered[d] {
			t.Errorf("decl %s: Unit.Order lost the Unit.Decls pointer", d.Name)
		}
	}

	// Switch.Cases entries must be the statement nodes inside the body,
	// and FuncDef.Labels must alias label statements in the body.
	pick := dec.Funcs["pick"]
	seen := make(map[cast.Stmt]bool)
	collectStmts(pick.Body, seen)
	var sw *cast.Switch
	for s := range seen {
		if s, ok := s.(*cast.Switch); ok {
			sw = s
		}
	}
	if sw == nil {
		t.Fatal("pick(): switch not found after decode")
	}
	if len(sw.Cases) != 2 || sw.Dflt == nil {
		t.Fatalf("pick(): switch has %d cases, dflt=%v", len(sw.Cases), sw.Dflt != nil)
	}
	for i, c := range sw.Cases {
		if !seen[cast.Stmt(c)] {
			t.Errorf("switch case %d is not shared with the body tree", i)
		}
	}
	if !seen[cast.Stmt(sw.Dflt)] {
		t.Error("switch default is not shared with the body tree")
	}
	main := dec.Funcs["main"]
	seen = make(map[cast.Stmt]bool)
	collectStmts(main.Body, seen)
	if len(main.Labels) == 0 {
		t.Fatal("main(): labels map empty after decode")
	}
	for name, lb := range main.Labels {
		if !seen[cast.Stmt(lb)] {
			t.Errorf("label %q is not shared with the body tree", name)
		}
	}

	// Static UB behaviors must decode to catalog identity, not copies.
	for _, u := range dec.StaticUB {
		if u.Behavior == nil {
			continue
		}
		if got, ok := lookupByCode(u.Behavior.Code); !ok || got != u.Behavior {
			t.Errorf("UB %d: behavior is a copy, not the catalog entry", u.Behavior.Code)
		}
	}
}

func lookupByCode(code int) (any, bool) {
	for _, b := range undefc.Catalog() {
		if b.Code == code {
			return b, true
		}
	}
	return nil, false
}

// TestDecodeCorrupt feeds the decoder every truncation of a valid payload
// plus single-byte corruptions: it must return an error (or, for a byte
// flip, possibly a validly decodable different payload) and never panic.
func TestDecodeCorrupt(t *testing.T) {
	prog := compileTricky(t)
	data, err := artifact.Encode(prog)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := artifact.Decode(data[:i]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", i, len(data))
		}
	}
	for i := 0; i < len(data); i += 7 {
		mut := bytes.Clone(data)
		mut[i] ^= 0xff
		artifact.Decode(mut) // must not panic; error or different program both fine
	}
	if _, err := artifact.Decode(append(bytes.Clone(data), 0x55)); err == nil {
		t.Fatal("trailing garbage decoded without error")
	}
}

// TestDecodeRejectsBadSlots: a function whose symbols' slots fall outside
// 1..NumSlots would make the interpreter index past an activation's
// locals, so the decoder refuses it as corrupt.
func TestDecodeRejectsBadSlots(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *undefc.Program)
	}{
		{"slot past NumSlots", func(p *undefc.Program) { p.Funcs["add"].Params[1].Slot = 3 }},
		{"NumSlots too small", func(p *undefc.Program) { p.Funcs["add"].NumSlots = 1 }},
		{"negative slot", func(p *undefc.Program) { p.Funcs["add"].Params[0].Slot = -1 }},
		{"slotted file-scope symbol", func(p *undefc.Program) { p.Symbols["msg"].Slot = 1 }},
	} {
		prog := compileTricky(t) // a private copy: the test may break it
		tc.mutate(prog)
		data, err := artifact.Encode(prog)
		if err != nil {
			t.Fatalf("%s: encode: %v", tc.name, err)
		}
		if _, err := artifact.Decode(data); !errors.Is(err, artifact.ErrCorrupt) {
			t.Errorf("%s: decode returned %v, want ErrCorrupt", tc.name, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	payload := append([]byte("ubcp"), binary.AppendUvarint(nil, uint64(driver.ArtifactFormat)+1)...)
	_, err := artifact.Decode(payload)
	if !errors.Is(err, artifact.ErrVersion) {
		t.Fatalf("future-version payload: got %v, want ErrVersion", err)
	}
	_, err = artifact.Decode([]byte("nope"))
	if !errors.Is(err, artifact.ErrCorrupt) {
		t.Fatalf("bad magic: got %v, want ErrCorrupt", err)
	}
}

// ---------- round-trip differential gate ----------

// outcome captures everything an observer can see from one run.
type outcome struct {
	exit   int
	ubLine string
	errStr string
	output string
	events []string
}

// runProg executes an in-hand program the way undefc.RunSource would,
// including the static-UB short circuit, capturing the observer stream.
func runProg(prog *undefc.Program, engine string) outcome {
	if len(prog.StaticUB) > 0 {
		u := prog.StaticUB[0]
		return outcome{exit: 1, ubLine: fmt.Sprintf("%05d %s %s", u.Behavior.Code, u.Pos, u.Msg)}
	}
	rec := &obs.Recorder{}
	res := undefc.Run(prog, undefc.Options{
		Exec: interp.Options{
			Engine:   engine,
			Profile:  interp.KCCProfile(),
			Observer: rec,
			Budget:   interp.Budget{MaxSteps: 2_000_000},
		},
	})
	o := outcome{exit: res.ExitCode, output: res.Output, events: rec.Lines()}
	if res.UB != nil {
		o.ubLine = fmt.Sprintf("%05d %s %s", res.UB.Behavior.Code, res.UB.Pos, res.UB.Msg)
	}
	if res.Err != nil {
		o.errStr = res.Err.Error()
	}
	return o
}

func diffOutcome(t *testing.T, name, engine string, want, got outcome) {
	t.Helper()
	if want.exit != got.exit {
		t.Errorf("%s/%s: exit original=%d decoded=%d", name, engine, want.exit, got.exit)
	}
	if want.ubLine != got.ubLine {
		t.Errorf("%s/%s: UB verdict diverged:\n  original: %s\n  decoded:  %s", name, engine, want.ubLine, got.ubLine)
	}
	if want.errStr != got.errStr {
		t.Errorf("%s/%s: error diverged:\n  original: %s\n  decoded:  %s", name, engine, want.errStr, got.errStr)
	}
	if want.output != got.output {
		t.Errorf("%s/%s: output diverged:\n  original: %q\n  decoded:  %q", name, engine, want.output, got.output)
	}
	if len(want.events) != len(got.events) {
		t.Errorf("%s/%s: event count original=%d decoded=%d", name, engine, len(want.events), len(got.events))
	}
	n := len(want.events)
	if len(got.events) < n {
		n = len(got.events)
	}
	for i := 0; i < n; i++ {
		if want.events[i] != got.events[i] {
			t.Errorf("%s/%s: event %d diverged:\n  original: %s\n  decoded:  %s", name, engine, i, want.events[i], got.events[i])
			break
		}
	}
}

// slotsOf renders every function's frame layout: NumSlots, then the slot
// of each parameter and block-scope declaration in source order.
func slotsOf(p *undefc.Program) string {
	var b strings.Builder
	var walk func(s cast.Stmt)
	walk = func(s cast.Stmt) {
		switch s := s.(type) {
		case *cast.DeclStmt:
			for _, d := range s.Decls {
				fmt.Fprintf(&b, " %s=%d", d.Name, d.Sym.Slot)
			}
		case *cast.Compound:
			for _, st := range s.List {
				walk(st)
			}
		case *cast.If:
			walk(s.Then)
			walk(s.Else)
		case *cast.While:
			walk(s.Body)
		case *cast.DoWhile:
			walk(s.Body)
		case *cast.For:
			walk(s.Init)
			walk(s.Body)
		case *cast.Switch:
			walk(s.Body)
		case *cast.Case:
			walk(s.Stmt)
		case *cast.Default:
			walk(s.Stmt)
		case *cast.Label:
			walk(s.Stmt)
		}
	}
	for _, f := range p.Unit.Funcs {
		fmt.Fprintf(&b, "%s/%d:", f.Name, f.NumSlots)
		for _, prm := range f.Params {
			fmt.Fprintf(&b, " %s=%d", prm.Name, prm.Slot)
		}
		walk(f.Body)
		b.WriteString("; ")
	}
	return b.String()
}

// TestArtifactRoundTripGate is the CI differential gate: for every case of
// both paper suites, decode(encode(P)) must produce byte-identical
// verdicts AND observer event streams under both engines. The original
// program is the oracle — any divergence is a codec bug by definition.
// The codec group adds units no suite case covers; each must compile.
func TestArtifactRoundTripGate(t *testing.T) {
	codec := &suite.Suite{Name: "codec", Cases: []suite.Case{
		{Name: "switch_no_default", Source: "int main(void) { switch (1) { case 1: break; } return 0; }"},
	}}
	suites := []*suite.Suite{suite.Juliet(), suite.Own(), codec}
	cases := 0
	for _, s := range suites {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, c := range s.Cases {
				prog, err := undefc.Compile(c.Source, c.Name+".c", undefc.Options{})
				if err != nil {
					if s == codec {
						t.Errorf("%s: compile: %v", c.Name, err)
					}
					continue // compile failures never reach the artifact tier
				}
				data, err := artifact.Encode(prog)
				if err != nil {
					t.Errorf("%s: encode: %v", c.Name, err)
					continue
				}
				dec, err := artifact.Decode(data)
				if err != nil {
					t.Errorf("%s: decode: %v", c.Name, err)
					continue
				}
				cases++
				if want, got := slotsOf(prog), slotsOf(dec); want != got {
					t.Errorf("%s: decoded frame slots %s, fresh compile %s", c.Name, got, want)
				}
				for _, engine := range []string{"tree", "vm"} {
					diffOutcome(t, c.Name, engine, runProg(prog, engine), runProg(dec, engine))
				}
			}
		})
	}
}
