package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/driver"
	"repro/internal/obs"
	"repro/internal/suite"
	"repro/internal/tools"
)

// metricsReport runs the Juliet matrix with metrics collection on and the
// given parallelism, returning the canonical report.
func metricsReport(t *testing.T, workers int) *SuiteReport {
	t.Helper()
	s := suite.Juliet()
	ts := tools.All(tools.Config{Metrics: true})
	m, err := RunMatrix(s, ts, Options{Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	return SuiteReportFrom(s, ts, m)
}

// TestMetricsDeterministicParallel is the satellite requirement: per-tool
// metrics merged from an 8-worker run must equal the sequential merge
// exactly — commutative snapshot addition makes worker scheduling
// invisible. (Meaningful under -race: shards and the scratch event are
// exercised concurrently.)
func TestMetricsDeterministicParallel(t *testing.T) {
	seq := metricsReport(t, 1)
	par := metricsReport(t, 8)
	seq.ZeroTimes()
	par.ZeroTimes()
	if !reflect.DeepEqual(seq, par) {
		sj, _ := json.Marshal(seq)
		pj, _ := json.Marshal(par)
		t.Fatalf("8-worker report differs from sequential:\nseq: %s\npar: %s", sj, pj)
	}
	// The comparison only means something if metrics actually flowed.
	for _, a := range seq.Aggregate {
		if a.Metrics == nil || a.Metrics.Steps == 0 {
			t.Fatalf("%s aggregated no metrics: %+v", a.Tool, a.Metrics)
		}
		if a.Metrics.Cases != int64(len(seq.Cases)) {
			t.Errorf("%s merged %d cases, want %d", a.Tool, a.Metrics.Cases, len(seq.Cases))
		}
	}
}

// TestSuiteReportJSONRoundTrip: the canonical report must survive
// marshal → unmarshal unchanged, including nested ub.Error values and
// metrics snapshots.
func TestSuiteReportJSONRoundTrip(t *testing.T) {
	rep := metricsReport(t, 4)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, rep); err != nil {
		t.Fatal(err)
	}
	var back SuiteReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Fatal("suite report changed across the JSON round trip")
	}
}

// TestSuiteReportSchema pins the acceptance-criteria surface of
// `ubsuite -suite juliet -json`: schema tag, one result per case×tool,
// and per-tool per-behavior check counters.
func TestSuiteReportSchema(t *testing.T) {
	rep := metricsReport(t, 4)
	if rep.Schema != "undefc.report/v1" {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.Suite == "" || len(rep.Tools) == 0 {
		t.Fatalf("suite/tools missing: %q %v", rep.Suite, rep.Tools)
	}
	if len(rep.Cases) == 0 {
		t.Fatal("no cases")
	}
	for _, c := range rep.Cases {
		if len(c.Results) != len(rep.Tools) {
			t.Fatalf("case %s has %d results, want %d", c.Name, len(c.Results), len(rep.Tools))
		}
	}
	if len(rep.Aggregate) != len(rep.Tools) {
		t.Fatalf("aggregate rows = %d, want %d", len(rep.Aggregate), len(rep.Tools))
	}
	var kcc *ToolAggregate
	for i := range rep.Aggregate {
		if rep.Aggregate[i].Tool == "kcc" {
			kcc = &rep.Aggregate[i]
		}
	}
	if kcc == nil {
		t.Fatal("no kcc aggregate")
	}
	if kcc.Metrics == nil || len(kcc.Metrics.Checks) == 0 {
		t.Fatal("kcc aggregate has no per-behavior check counters")
	}
	// kcc flags every bad Juliet case; the uninitialized-memory class
	// must show up as fires on UB 00009 (indeterminate value).
	if cc := kcc.Metrics.Checks[obs.CheckKey(9)]; cc == nil || cc.Fired == 0 {
		t.Errorf("kcc check counter for 00009 = %+v, want fires", cc)
	}
	// Execution stops at the first fired check, so kcc fires exactly one
	// check per flagged case.
	if kcc.Metrics.ChecksFired != int64(kcc.Flagged) {
		t.Errorf("checks fired (%d) != flagged cases (%d)",
			kcc.Metrics.ChecksFired, kcc.Flagged)
	}
	// A flagged case must carry the structured UB error on the wire.
	found := false
	for _, c := range rep.Cases {
		if !c.Bad {
			continue
		}
		for _, r := range c.Results {
			if r.Tool == "kcc" && r.Verdict == tools.Flagged {
				if r.UB == nil || r.UB.Behavior == nil {
					t.Fatalf("flagged case %s has no structured UB", c.Name)
				}
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no flagged kcc case found")
	}
}

// TestFileReportShape covers the kcc -json single-file schema.
func TestFileReportShape(t *testing.T) {
	kcc := tools.KCC(tools.Config{Metrics: true})
	rep := tools.Analyze(context.Background(), driver.NewCache(), kcc,
		"int main(void){ int x = 0; return (x = 1) + (x = 2); }", "unseq.c", driver.Options{})
	fr := FileReportFrom("unseq.c", kcc.Name(), rep)
	var buf bytes.Buffer
	if err := WriteJSON(&buf, fr); err != nil {
		t.Fatal(err)
	}
	var back FileReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.File != "unseq.c" {
		t.Fatalf("header = %+v", back)
	}
	if back.Result.Verdict != tools.Flagged || back.Result.UB == nil {
		t.Fatalf("result = %+v", back.Result)
	}
	if back.Result.UB.Behavior == nil || back.Result.UB.Behavior.Code != 16 {
		t.Fatalf("UB behavior = %+v, want 00016", back.Result.UB.Behavior)
	}
	if back.Result.Metrics == nil || back.Result.Metrics.Steps == 0 {
		t.Fatalf("metrics = %+v", back.Result.Metrics)
	}
}
