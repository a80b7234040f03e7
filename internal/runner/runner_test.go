package runner

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/suite"
	"repro/internal/tools"
)

// TestFigure2Shape validates the qualitative claims of the paper's Figure 2
// against our regenerated table:
//   - kcc catches 100% of every class;
//   - Value Analysis catches 100% of every class (its post-patch state);
//   - Valgrind and CheckPointer catch 0% of division by zero and integer
//     overflow;
//   - CheckPointer is weak on uninitialized memory (only pointer uses);
//   - Valgrind trails CheckPointer on invalid-pointer defects (stack
//     blindness);
//   - nobody false-positives on the paired defined tests.
func TestFigure2Shape(t *testing.T) {
	fig, err := RunJuliet(suite.Juliet(), tools.All(tools.Config{}), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	get := func(class, tool string) float64 { return fig.Scores[class][tool].Pct() }

	for _, class := range fig.Classes {
		if p := get(class, "kcc"); p != 100 {
			t.Errorf("kcc on %q = %.1f, want 100", class, p)
		}
		if p := get(class, "V. Analysis"); p != 100 {
			t.Errorf("V. Analysis on %q = %.1f, want 100", class, p)
		}
	}
	for _, tool := range []string{"Valgrind", "CheckPointer"} {
		if p := get(suite.ClassDivZero, tool); p != 0 {
			t.Errorf("%s on division by zero = %.1f, want 0", tool, p)
		}
		if p := get(suite.ClassOverflow, tool); p != 0 {
			t.Errorf("%s on integer overflow = %.1f, want 0", tool, p)
		}
	}
	if p := get(suite.ClassUninit, "CheckPointer"); p >= 50 {
		t.Errorf("CheckPointer on uninitialized memory = %.1f, want small (paper: 29.3)", p)
	}
	if p := get(suite.ClassUninit, "Valgrind"); p != 100 {
		t.Errorf("Valgrind on uninitialized memory = %.1f, want 100", p)
	}
	vg, cp := get(suite.ClassInvalidPtr, "Valgrind"), get(suite.ClassInvalidPtr, "CheckPointer")
	if !(vg < cp) {
		t.Errorf("invalid pointer: Valgrind (%.1f) should trail CheckPointer (%.1f)", vg, cp)
	}
	if vg < 40 || vg > 90 {
		t.Errorf("Valgrind on invalid pointer = %.1f, want the paper's mid-range (70.9)", vg)
	}
	for _, tool := range fig.Tools {
		if fp := fig.Overall[tool].FalsePositives; fp != 0 {
			t.Errorf("%s has %d false positives on defined twins", tool, fp)
		}
	}
	if p := get(suite.ClassBadFree, "Valgrind"); p != 100 {
		t.Errorf("Valgrind on bad free = %.1f, want 100", p)
	}
	if p := get(suite.ClassBadCall, "Valgrind"); p != 100 {
		t.Errorf("Valgrind on bad function call = %.1f, want 100 (uninit-argument effect)", p)
	}
}

// TestFigure3Shape validates the qualitative claims of Figure 3: the
// narrow tools detect few behaviors; the value analysis detects many
// dynamic ones but almost no static ones; kcc leads both columns and is
// the only tool with substantial static coverage.
func TestFigure3Shape(t *testing.T) {
	fig, err := RunOwn(suite.Own(), tools.All(tools.Config{}), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	kS, kD := fig.Static["kcc"], fig.Dynamic["kcc"]
	vS, vD := fig.Static["V. Analysis"], fig.Dynamic["V. Analysis"]
	gS, gD := fig.Static["Valgrind"], fig.Dynamic["Valgrind"]
	cS, cD := fig.Static["CheckPointer"], fig.Dynamic["CheckPointer"]

	// Column order of the paper: kcc dominates.
	if !(kD > vD && vD > cD && cD > gD) {
		t.Errorf("dynamic order should be kcc > VA > CheckPtr > Valgrind: %.1f %.1f %.1f %.1f",
			kD, gD, cD, vD)
	}
	if !(kS > vS && kS > gS && kS > cS) {
		t.Errorf("kcc should lead the static column: kcc=%.1f vg=%.1f cp=%.1f va=%.1f",
			kS, gS, cS, vS)
	}
	// kcc's static coverage is partial (paper: 44.8) — static behaviors
	// need dedicated frontend work.
	if kS < 25 || kS > 75 {
		t.Errorf("kcc static = %.1f, want mid-range (paper: 44.8)", kS)
	}
	// The other tools are nearly blind statically (paper: 0.0-2.4).
	for tool, v := range map[string]float64{"Valgrind": gS, "CheckPointer": cS, "V. Analysis": vS} {
		if v > 10 {
			t.Errorf("%s static = %.1f, want near zero (paper: <= 2.4)", tool, v)
		}
	}
	if fp := fig.FalsePos["kcc"]; fp != 0 {
		t.Errorf("kcc has %d false positives", fp)
	}
}

func TestRenderOutputs(t *testing.T) {
	fig2, err := RunJuliet(suite.Juliet(), tools.All(tools.Config{}), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out := fig2.Render()
	for _, want := range []string{"Figure 2", "Division by zero", "kcc", "No. Tests"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 rendering missing %q:\n%s", want, out)
		}
	}
	fig3, err := RunOwn(suite.Own(), tools.All(tools.Config{}), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	out3 := fig3.Render()
	for _, want := range []string{"Figure 3", "Static", "Dynamic"} {
		if !strings.Contains(out3, want) {
			t.Errorf("Figure 3 rendering missing %q:\n%s", want, out3)
		}
	}
	if !strings.Contains(CatalogSummary(), "221") {
		t.Error("catalog summary missing total")
	}
}

// zeroTimes clears the wall-clock fields of a Figure2 so two runs can be
// compared for semantic equality.
func zeroTimes(f *Figure2) {
	for _, byTool := range f.Scores {
		for tn, sc := range byTool {
			sc.CompileTime, sc.RunTime = 0, 0
			byTool[tn] = sc
		}
	}
	for tn, sc := range f.Overall {
		sc.CompileTime, sc.RunTime = 0, 0
		f.Overall[tn] = sc
	}
	f.Frontend.Time = 0
}

// stripTimingLines removes the wall-clock lines from a rendered figure.
func stripTimingLines(s string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.HasPrefix(line, "Mean time") || strings.HasPrefix(line, "Frontend") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// TestParallelDeterminism is the regression test for the worker-pool
// executor: a run with 8 workers must produce a Figure2 deeply equal to
// the sequential result (timings aside — those are wall-clock).
func TestParallelDeterminism(t *testing.T) {
	s := suite.Juliet()
	seq, err := RunJuliet(s, tools.All(tools.Config{}), Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunJuliet(s, tools.All(tools.Config{}), Options{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	seqOut, parOut := stripTimingLines(seq.Render()), stripTimingLines(par.Render())
	if seqOut != parOut {
		t.Errorf("parallel rendering differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s",
			seqOut, parOut)
	}
	zeroTimes(seq)
	zeroTimes(par)
	if !reflect.DeepEqual(seq, par) {
		t.Errorf("parallel Figure2 not deeply equal to sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}

// TestFrontendSharing asserts the compile cache collapses frontend work
// from one-per-(case×tool) to one-per-case in a Figure-2 run.
func TestFrontendSharing(t *testing.T) {
	s := suite.Juliet()
	ts := tools.All(tools.Config{})
	fig, err := RunJuliet(s, ts, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if fig.Frontend.Compiles != len(s.Cases) {
		t.Errorf("frontend ran %d times, want one per case (%d)", fig.Frontend.Compiles, len(s.Cases))
	}
	if want := len(s.Cases) * (len(ts) - 1); fig.Frontend.CacheHits != want {
		t.Errorf("cache hits = %d, want %d (every tool after the first)", fig.Frontend.CacheHits, want)
	}
	// Under the shared cache no tool pays compile time itself.
	for tn, sc := range fig.Overall {
		if sc.CompileTime != 0 {
			t.Errorf("%s was charged %v of compile time under the shared cache", tn, sc.CompileTime)
		}
		if sc.RunTime <= 0 {
			t.Errorf("%s has no run time", tn)
		}
	}
	if fig.Frontend.Time <= 0 {
		t.Error("no frontend time accounted")
	}
}

// TestRunCancellation: a canceled context aborts the run with its error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	fig, err := RunJuliet(suite.Juliet(), tools.All(tools.Config{}),
		Options{Parallelism: 2, Context: ctx})
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if fig != nil {
		t.Error("canceled run returned a figure")
	}
}
