package interp_test

import (
	"fmt"
	"strings"
	"testing"

	undefc "repro"
	"repro/internal/cast"
	"repro/internal/ctypes"
)

// operand is a C value of an integer type: its canonical representation
// (ctypes.Model.Wrap).
type operand struct {
	t *ctypes.Type
	v uint64
}

// edges are the values of t the agreement test feeds every operator: 0,
// ±1, the minimum, the maximum and the maximum less one.
func edges(m *ctypes.Model, t *ctypes.Type) []operand {
	var out []operand
	for _, v := range []uint64{0, 1, ^uint64(0), uint64(m.IntMin(t)), m.IntMax(t), m.IntMax(t) - 1} {
		o := operand{t, m.Wrap(t, v)}
		dup := false
		for _, p := range out {
			dup = dup || p == o
		}
		if !dup {
			out = append(out, o)
		}
	}
	return out
}

// literal spells o as a C expression of its type.
func (o operand) literal(m *ctypes.Model) string {
	if !o.t.IsSigned(m) {
		return fmt.Sprintf("(%s)%dULL", o.t, o.v)
	}
	if int64(o.v) == -1<<63 {
		return fmt.Sprintf("(%s)(-9223372036854775807LL - 1)", o.t)
	}
	return fmt.Sprintf("(%s)(%dLL)", o.t, int64(o.v))
}

// node is o as a constant-expression tree: a cast of its value.
func (o operand) node() cast.Expr {
	return &cast.Cast{To: o.t, X: &cast.IntLit{ExprBase: cast.ExprBase{T: ctypes.TULongLong}, Value: o.v}}
}

var agreeTypes = []*ctypes.Type{
	ctypes.TBool, ctypes.TChar, ctypes.TSChar, ctypes.TUChar, ctypes.TShort, ctypes.TUShort,
	ctypes.TInt, ctypes.TUInt, ctypes.TLong, ctypes.TULong, ctypes.TLongLong, ctypes.TULongLong,
}

// TestArithAgreesWithFold holds the interpreter's integer operators to
// cast.FoldInt, the compile-time evaluator: under LP64, ILP32 and INT8,
// for every integer type, every binary and unary integer operator and
// every pair of edge operands (and shift counts 0, width-1 and width of
// the promoted left operand), the kcc profile reports undefined behavior
// exactly when FoldInt rejects the same expression, and otherwise both
// give the same value.
func TestArithAgreesWithFold(t *testing.T) {
	binary := []cast.BinaryOp{
		cast.BAdd, cast.BSub, cast.BMul, cast.BDiv, cast.BRem, cast.BShl, cast.BShr,
		cast.BLt, cast.BGt, cast.BLe, cast.BGe, cast.BEq, cast.BNe, cast.BAnd, cast.BXor, cast.BOr,
	}
	unary := []cast.UnaryOp{cast.UPlus, cast.UNeg, cast.UCompl, cast.UNot}
	for _, m := range []*ctypes.Model{ctypes.LP64(), ctypes.ILP32(), ctypes.Int8()} {
		t.Run(m.Name, func(t *testing.T) {
			n, undefined := 0, 0
			for _, ty := range agreeTypes {
				xs := edges(m, ty)
				for _, x := range xs {
					for _, op := range unary {
						e := &cast.Unary{Op: op, X: x.node()}
						undefined += agree(t, m, fmt.Sprintf("%s%s", op, x.literal(m)), e, x)
						n++
					}
				}
				w := uint64(m.Size(m.Promote(ty)) * 8)
				counts := append(xs[:len(xs):len(xs)],
					operand{ctypes.TInt, 0}, operand{ctypes.TInt, w - 1}, operand{ctypes.TInt, w})
				for _, op := range binary {
					ys := xs
					if op == cast.BShl || op == cast.BShr {
						ys = counts
					}
					for _, x := range xs {
						for _, y := range ys {
							e := &cast.Binary{Op: op, X: x.node(), Y: y.node()}
							undefined += agree(t, m, fmt.Sprintf("%s %s %s", x.literal(m), op, y.literal(m)), e, x, y)
							n++
						}
					}
				}
			}
			t.Logf("%d expressions, %d undefined", n, undefined)
		})
	}
}

// agree runs the expression e, spelled text, over the operands ops
// loaded from variables, and compares the run with FoldInt(e). It
// returns 1 if FoldInt finds e undefined.
func agree(t *testing.T, m *ctypes.Model, text string, e cast.Expr, ops ...operand) int {
	t.Helper()
	var src strings.Builder
	src.WriteString("#include <stdio.h>\nint main(void) {\n")
	names := []string{"x", "y"}
	for i, o := range ops {
		fmt.Fprintf(&src, "\t%s %s = %s;\n", o.t, names[i], o.literal(m))
	}
	var run string
	switch e := e.(type) {
	case *cast.Unary:
		run = fmt.Sprintf("%sx", e.Op)
	case *cast.Binary:
		run = fmt.Sprintf("x %s y", e.Op)
	}
	fmt.Fprintf(&src, "\tprintf(\"%%llu\\n\", (unsigned long long)(%s));\n\treturn 0;\n}\n", run)
	want, ferr := cast.FoldInt(m, e)
	res := undefc.RunSource(src.String(), "agree.c", undefc.Options{Model: m})
	switch {
	case res.Err != nil:
		t.Errorf("%s under %s: %v", text, m.Name, res.Err)
	case (res.UB != nil) != (ferr != nil):
		t.Errorf("%s under %s: run reports %v, FoldInt %v", text, m.Name, res.UB, ferr)
	case ferr == nil && res.Output != fmt.Sprintf("%d\n", want.V):
		t.Errorf("%s under %s: run prints %q, FoldInt gives %d", text, m.Name, res.Output, want.V)
	}
	if ferr != nil {
		return 1
	}
	return 0
}
