package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ub"
)

// Metrics aggregates the event stream into counters. All scalar counters
// are atomics and the per-behavior tallies are fixed-size atomic arrays, so
// one Metrics may observe several goroutines at once without locks on the
// hot path (only the builtin-call map takes a mutex, and builtin calls are
// rare next to steps). A worker pool collects one Metrics per analysis
// and merges the snapshots with Snapshot.Add.
type Metrics struct {
	steps atomic.Int64

	reads, writes         atomic.Int64
	readBytes, writeBytes atomic.Int64
	readsByClass          [numAccessClasses]atomic.Int64
	writesByClass         [numAccessClasses]atomic.Int64

	seqPoints, seqFlushed atomic.Int64

	checksPassed, checksFired atomic.Int64
	// pass/fire are indexed by ub.Behavior.Code (1-based; index 0 unused).
	pass, fire []atomic.Int64

	sched  atomic.Int64
	faults atomic.Int64

	mu       sync.Mutex
	builtins map[string]int64
}

// NewMetrics returns an empty collector sized to the UB catalog.
func NewMetrics() *Metrics {
	return &Metrics{
		pass:     make([]atomic.Int64, len(ub.Catalog)+1),
		fire:     make([]atomic.Int64, len(ub.Catalog)+1),
		builtins: make(map[string]int64),
	}
}

// Event implements Observer.
func (m *Metrics) Event(ev *Event) {
	switch ev.Kind {
	case EvStep:
		m.steps.Add(1)
	case EvRead:
		m.reads.Add(1)
		m.readBytes.Add(ev.Size)
		m.readsByClass[ev.Class].Add(1)
	case EvWrite:
		m.writes.Add(1)
		m.writeBytes.Add(ev.Size)
		m.writesByClass[ev.Class].Add(1)
	case EvSeqPoint:
		m.seqPoints.Add(1)
		m.seqFlushed.Add(ev.Size)
	case EvCheck:
		code := ev.Behavior.Code
		if ev.Fired {
			m.checksFired.Add(1)
			if code >= 1 && code < len(m.fire) {
				m.fire[code].Add(1)
			}
		} else {
			m.checksPassed.Add(1)
			if code >= 1 && code < len(m.pass) {
				m.pass[code].Add(1)
			}
		}
	case EvSched:
		m.sched.Add(1)
	case EvBuiltin:
		m.mu.Lock()
		m.builtins[ev.Name]++
		m.mu.Unlock()
	case EvFault:
		m.faults.Add(1)
	}
}

// Snapshot freezes the counters into the mergeable, JSON-stable form.
func (m *Metrics) Snapshot() *Snapshot {
	s := &Snapshot{
		Steps:          m.steps.Load(),
		MemReads:       m.reads.Load(),
		MemWrites:      m.writes.Load(),
		MemReadBytes:   m.readBytes.Load(),
		MemWriteBytes:  m.writeBytes.Load(),
		SeqPoints:      m.seqPoints.Load(),
		SeqFlushedLocs: m.seqFlushed.Load(),
		ChecksPassed:   m.checksPassed.Load(),
		ChecksFired:    m.checksFired.Load(),
		SchedChoices:   m.sched.Load(),
		Faults:         m.faults.Load(),
	}
	for c := 0; c < numAccessClasses; c++ {
		if n := m.readsByClass[c].Load(); n > 0 {
			if s.ReadsByClass == nil {
				s.ReadsByClass = map[string]int64{}
			}
			s.ReadsByClass[AccessClass(c).String()] = n
		}
		if n := m.writesByClass[c].Load(); n > 0 {
			if s.WritesByClass == nil {
				s.WritesByClass = map[string]int64{}
			}
			s.WritesByClass[AccessClass(c).String()] = n
		}
	}
	for code := 1; code < len(m.pass); code++ {
		p, f := m.pass[code].Load(), m.fire[code].Load()
		if p == 0 && f == 0 {
			continue
		}
		if s.Checks == nil {
			s.Checks = map[string]*CheckCount{}
		}
		b, _ := ub.Lookup(code)
		s.Checks[CheckKey(code)] = &CheckCount{Section: b.Section, Desc: b.Desc, Passed: p, Fired: f}
	}
	m.mu.Lock()
	if len(m.builtins) > 0 {
		s.BuiltinCalls = make(map[string]int64, len(m.builtins))
		for name, n := range m.builtins {
			s.BuiltinCalls[name] = n
		}
	}
	m.mu.Unlock()
	return s
}

// CheckKey is the stable JSON key of a behavior: the zero-padded code the
// paper's error reports print ("Error: 00016").
func CheckKey(code int) string { return fmt.Sprintf("%05d", code) }

// CheckCount tallies one behavior's check evaluations.
type CheckCount struct {
	Section string `json:"section"`
	Desc    string `json:"desc,omitempty"`
	Passed  int64  `json:"passed"`
	Fired   int64  `json:"fired"`
}

// Snapshot is the frozen, mergeable view of a Metrics — the canonical
// machine-readable metrics shape of the undefc.report/v1 schema. All
// fields are plain values so a Snapshot round-trips through JSON.
type Snapshot struct {
	Steps          int64            `json:"steps"`
	MemReads       int64            `json:"mem_reads"`
	MemWrites      int64            `json:"mem_writes"`
	MemReadBytes   int64            `json:"mem_read_bytes"`
	MemWriteBytes  int64            `json:"mem_write_bytes"`
	ReadsByClass   map[string]int64 `json:"reads_by_class,omitempty"`
	WritesByClass  map[string]int64 `json:"writes_by_class,omitempty"`
	SeqPoints      int64            `json:"seq_points"`
	SeqFlushedLocs int64            `json:"seq_flushed_locs"`
	ChecksPassed   int64            `json:"checks_passed"`
	ChecksFired    int64            `json:"checks_fired"`
	// Checks is keyed by zero-padded behavior code ("00016").
	Checks       map[string]*CheckCount `json:"checks_by_behavior,omitempty"`
	SchedChoices int64                  `json:"sched_choices"`
	BuiltinCalls map[string]int64       `json:"builtin_calls,omitempty"`
	CacheHits    int64                  `json:"cache_hits,omitempty"`
	CacheMisses  int64                  `json:"cache_misses,omitempty"`
	// Faults counts contained pipeline panics (fault-containment layer).
	Faults int64 `json:"faults,omitempty"`

	// Cases counts the per-run snapshots merged in via AddCase, and
	// StepsPerCase is their step-count histogram — suite-level fields,
	// absent on a single run's snapshot.
	Cases        int64 `json:"cases,omitempty"`
	StepsPerCase *Hist `json:"steps_per_case,omitempty"`
}

// Add accumulates o counter-wise (per-run or suite merging). Nil is a no-op.
func (s *Snapshot) Add(o *Snapshot) {
	if o == nil {
		return
	}
	s.Steps += o.Steps
	s.MemReads += o.MemReads
	s.MemWrites += o.MemWrites
	s.MemReadBytes += o.MemReadBytes
	s.MemWriteBytes += o.MemWriteBytes
	s.SeqPoints += o.SeqPoints
	s.SeqFlushedLocs += o.SeqFlushedLocs
	s.ChecksPassed += o.ChecksPassed
	s.ChecksFired += o.ChecksFired
	s.SchedChoices += o.SchedChoices
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.Faults += o.Faults
	s.Cases += o.Cases
	s.ReadsByClass = addMap(s.ReadsByClass, o.ReadsByClass)
	s.WritesByClass = addMap(s.WritesByClass, o.WritesByClass)
	s.BuiltinCalls = addMap(s.BuiltinCalls, o.BuiltinCalls)
	for k, c := range o.Checks {
		if s.Checks == nil {
			s.Checks = map[string]*CheckCount{}
		}
		if have := s.Checks[k]; have != nil {
			have.Passed += c.Passed
			have.Fired += c.Fired
		} else {
			cp := *c
			s.Checks[k] = &cp
		}
	}
	if o.StepsPerCase != nil {
		if s.StepsPerCase == nil {
			s.StepsPerCase = &Hist{}
		}
		s.StepsPerCase.Merge(o.StepsPerCase)
	}
}

// AddCase merges one per-run snapshot as a suite case: counters are
// accumulated, Cases is incremented, and the run's step count is observed
// into the StepsPerCase histogram.
func (s *Snapshot) AddCase(o *Snapshot) {
	if o == nil {
		return
	}
	s.Add(o)
	s.Cases++
	if s.StepsPerCase == nil {
		s.StepsPerCase = &Hist{}
	}
	s.StepsPerCase.Observe(o.Steps)
}

func addMap(dst, src map[string]int64) map[string]int64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]int64, len(src))
	}
	for k, v := range src {
		dst[k] += v
	}
	return dst
}

// Summary renders the snapshot as one human-readable line (the -metrics
// footer of ubsuite).
func (s *Snapshot) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "steps %d · mem %dr/%dw · seqpts %d · checks %d passed / %d fired · sched %d",
		s.Steps, s.MemReads, s.MemWrites, s.SeqPoints, s.ChecksPassed, s.ChecksFired, s.SchedChoices)
	if top := s.TopFired(3); top != "" {
		fmt.Fprintf(&b, " · top fired: %s", top)
	}
	return b.String()
}

// TopFired lists the n most-fired behaviors as "00016×12, ...", sorted by
// count then code (deterministic).
func (s *Snapshot) TopFired(n int) string {
	type kv struct {
		key   string
		fired int64
	}
	var fired []kv
	for k, c := range s.Checks {
		if c.Fired > 0 {
			fired = append(fired, kv{k, c.Fired})
		}
	}
	sort.Slice(fired, func(i, j int) bool {
		if fired[i].fired != fired[j].fired {
			return fired[i].fired > fired[j].fired
		}
		return fired[i].key < fired[j].key
	})
	if len(fired) > n {
		fired = fired[:n]
	}
	parts := make([]string, len(fired))
	for i, f := range fired {
		parts[i] = fmt.Sprintf("%s×%d", f.key, f.fired)
	}
	return strings.Join(parts, ", ")
}

// histBuckets covers counts up to 2^39 (~5.5e11), far beyond any step
// budget; larger values clamp into the last bucket.
const histBuckets = 40

// Hist is a power-of-two-bucketed histogram: Buckets[i] counts observed
// values v with 2^(i-1) < v <= 2^i (Buckets[0] counts v <= 1). The fixed
// shape keeps merging elementwise and the JSON stable.
type Hist struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Min   int64 `json:"min"`
	Max   int64 `json:"max"`
	// Buckets[i] has upper bound 2^i.
	Buckets [histBuckets]int64 `json:"buckets"`
}

// Observe adds one value.
func (h *Hist) Observe(v int64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	b := 0
	for upper := int64(1); b < histBuckets-1 && v > upper; b++ {
		upper <<= 1
	}
	return b
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Mean is the average observed value.
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}
