package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/token"
	"repro/internal/ub"
)

func TestMetricsCounting(t *testing.T) {
	m := NewMetrics()
	pos := token.Pos{File: "t.c", Line: 3, Col: 1}
	events := []Event{
		{Kind: EvStep, Pos: pos},
		{Kind: EvStep, Pos: pos},
		{Kind: EvRead, Pos: pos, Class: ClassAuto, Size: 4},
		{Kind: EvRead, Pos: pos, Class: ClassHeap, Size: 8},
		{Kind: EvWrite, Pos: pos, Class: ClassAuto, Size: 4},
		{Kind: EvSeqPoint, Size: 3},
		{Kind: EvCheck, Pos: pos, Behavior: ub.IndeterminateValue},
		{Kind: EvCheck, Pos: pos, Behavior: ub.IndeterminateValue, Fired: true},
		{Kind: EvSched, Choice: 1, Fanout: 2},
		{Kind: EvBuiltin, Name: "printf"},
	}
	for i := range events {
		m.Event(&events[i])
	}
	s := m.Snapshot()
	if s.Steps != 2 || s.MemReads != 2 || s.MemWrites != 1 {
		t.Fatalf("steps/reads/writes = %d/%d/%d, want 2/2/1", s.Steps, s.MemReads, s.MemWrites)
	}
	if s.MemReadBytes != 12 || s.MemWriteBytes != 4 {
		t.Fatalf("read/write bytes = %d/%d, want 12/4", s.MemReadBytes, s.MemWriteBytes)
	}
	if s.ReadsByClass["auto"] != 1 || s.ReadsByClass["heap"] != 1 || s.WritesByClass["auto"] != 1 {
		t.Fatalf("by-class maps wrong: %v / %v", s.ReadsByClass, s.WritesByClass)
	}
	if s.SeqPoints != 1 || s.SeqFlushedLocs != 3 {
		t.Fatalf("seq = %d/%d, want 1/3", s.SeqPoints, s.SeqFlushedLocs)
	}
	if s.ChecksPassed != 1 || s.ChecksFired != 1 {
		t.Fatalf("checks = %d passed/%d fired, want 1/1", s.ChecksPassed, s.ChecksFired)
	}
	key := CheckKey(ub.IndeterminateValue.Code)
	cc := s.Checks[key]
	if cc == nil || cc.Passed != 1 || cc.Fired != 1 || cc.Section != ub.IndeterminateValue.Section {
		t.Fatalf("check count for %s = %+v", key, cc)
	}
	if s.SchedChoices != 1 || s.BuiltinCalls["printf"] != 1 {
		t.Fatalf("sched/builtins wrong: %d / %v", s.SchedChoices, s.BuiltinCalls)
	}
}

// TestShardedConcurrent drives shards from several goroutines (meaningful
// under -race) and checks the merge is exact.
func TestShardedConcurrent(t *testing.T) {
	sh := NewSharded()
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := sh.Shard()
			ev := Event{Kind: EvStep}
			rd := Event{Kind: EvRead, Class: ClassStatic, Size: 1}
			for i := 0; i < perWorker; i++ {
				m.Event(&ev)
				m.Event(&rd)
			}
		}()
	}
	wg.Wait()
	s := sh.Snapshot()
	if s.Steps != workers*perWorker || s.MemReads != workers*perWorker {
		t.Fatalf("merged steps/reads = %d/%d, want %d", s.Steps, s.MemReads, workers*perWorker)
	}
}

func TestSnapshotAddCase(t *testing.T) {
	var suite Snapshot
	a := &Snapshot{Steps: 10, ChecksFired: 1,
		Checks: map[string]*CheckCount{"00016": {Section: "6.5:2", Fired: 1}}}
	b := &Snapshot{Steps: 100, ChecksPassed: 5,
		Checks: map[string]*CheckCount{"00016": {Section: "6.5:2", Passed: 5}}}
	suite.AddCase(a)
	suite.AddCase(b)
	suite.AddCase(nil) // no-op
	if suite.Cases != 2 || suite.Steps != 110 {
		t.Fatalf("cases/steps = %d/%d, want 2/110", suite.Cases, suite.Steps)
	}
	cc := suite.Checks["00016"]
	if cc.Passed != 5 || cc.Fired != 1 {
		t.Fatalf("merged check = %+v", cc)
	}
	h := suite.StepsPerCase
	if h == nil || h.Count != 2 || h.Sum != 110 || h.Min != 10 || h.Max != 100 {
		t.Fatalf("hist = %+v", h)
	}
	// Mutating the merged copy must not alias the input snapshots.
	cc.Fired = 99
	if a.Checks["00016"].Fired != 1 {
		t.Fatal("Add aliased the source CheckCount")
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for _, v := range []int64{0, 1, 2, 3, 1024, 1 << 45} {
		h.Observe(v)
	}
	if h.Count != 6 || h.Min != 0 || h.Max != 1<<45 {
		t.Fatalf("hist = %+v", h)
	}
	if h.Buckets[0] != 2 { // 0 and 1
		t.Fatalf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[1] != 1 || h.Buckets[2] != 1 { // 2; 3
		t.Fatalf("buckets 1,2 = %d,%d, want 1,1", h.Buckets[1], h.Buckets[2])
	}
	if h.Buckets[10] != 1 { // 1024 = 2^10
		t.Fatalf("bucket 10 = %d, want 1", h.Buckets[10])
	}
	if h.Buckets[histBuckets-1] != 1 { // clamped
		t.Fatalf("last bucket = %d, want 1", h.Buckets[histBuckets-1])
	}
	var o Hist
	o.Observe(7)
	h.Merge(&o)
	if h.Count != 7 || h.Buckets[3] != 1 {
		t.Fatalf("after merge: %+v", h)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := &Snapshot{
		Steps: 42, MemReads: 3, MemWrites: 2, MemReadBytes: 12, MemWriteBytes: 8,
		ReadsByClass: map[string]int64{"auto": 3}, SeqPoints: 5, SeqFlushedLocs: 9,
		ChecksPassed: 7, ChecksFired: 1,
		Checks:       map[string]*CheckCount{"00016": {Section: "6.5:2", Desc: "x", Passed: 7, Fired: 1}},
		SchedChoices: 4, BuiltinCalls: map[string]int64{"printf": 2},
		CacheHits: 1, CacheMisses: 2, Cases: 3, StepsPerCase: &Hist{},
	}
	s.StepsPerCase.Observe(42)
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, &back) {
		t.Fatalf("round trip changed the snapshot:\n  in:  %+v\n  out: %+v", s, back)
	}
}

func TestTracerAndEventString(t *testing.T) {
	var b strings.Builder
	tr := &Tracer{W: &b}
	pos := token.Pos{File: "t.c", Line: 2, Col: 7}
	tr.Event(&Event{Kind: EvStep, Pos: pos}) // suppressed without Steps
	tr.Event(&Event{Kind: EvCheck, Pos: pos, Behavior: ub.IndeterminateValue, Fired: true})
	tr.Event(&Event{Kind: EvRead, Pos: pos, Class: ClassAuto, Size: 4})
	out := b.String()
	if strings.Contains(out, "step") {
		t.Fatalf("step event not suppressed:\n%s", out)
	}
	if !strings.Contains(out, "check FIRE") || !strings.Contains(out, "t.c:2:7") {
		t.Fatalf("missing check line:\n%s", out)
	}
	if !strings.Contains(out, "read auto 4B") {
		t.Fatalf("missing read line:\n%s", out)
	}
}

func TestMultiPreservesNilFastPath(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nils must be nil (the emitter's fast path key)")
	}
	r := &Recorder{}
	if got := Multi(nil, r, nil); got != Observer(r) {
		t.Fatalf("Multi with one live observer should unwrap it, got %T", got)
	}
	r2 := &Recorder{}
	m := Multi(r, r2)
	m.Event(&Event{Kind: EvStep})
	if len(r.Events) != 1 || len(r2.Events) != 1 {
		t.Fatalf("fan-out failed: %d/%d", len(r.Events), len(r2.Events))
	}
}
