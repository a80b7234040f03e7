package obs

// The UB check-site coverage ledger: which of the catalog's formalized
// behaviors the running process has ever *evaluated* a check for, and
// which of those checks have ever *fired*. The paper's evaluation
// (Figure 2) accounts for which behaviors each tool catches; the ledger
// closes the complementary evidence gap — which registered behaviors a
// suite never even exercises (dead coverage).
//
// The design splits a static and a dynamic half:
//
//   - At init time each row of the interpreter's check-site table
//     (internal/interp/checksites.go) registers its (behavior code,
//     profile gate, site name) via RegisterCheckSite. A row is one named
//     check, such as "access.uaf", and every check call names its row, so
//     the registry is the table. It is written only during package
//     initialization and is read-only afterwards, so snapshots read it
//     without locks; the VM names the same rows and registers none.
//   - At run time the two check funnels (interp.ubError and
//     interp.obsCheckPass, which the VM reaches through the same exported
//     wrappers) count into the run's own CoverageTally, which the
//     interpreter adds to the shared atomic counters once, when the run
//     ends — however it ends. Counting is allocation-free and
//     independent of whether an Observer is installed: the ledger is
//     always on. CoverageHit adds one evaluation directly.
//
// Counter totals are order-independent sums, so a parallel matrix run
// (-j 8) and both engines produce identical ledgers by construction.

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ub"
)

// CoverageSchema identifies the ledger wire format.
const CoverageSchema = "undefc.coverage/v1"

// CheckSite is one registered check: behavior code, the interp.Profile
// gate that arms it ("Always" for ungated checks, "DivZero|Overflow" for
// a check either gate arms), and the row's stable name ("access.uaf").
type CheckSite struct {
	Code int    `json:"code"`
	Gate string `json:"gate"`
	Site string `json:"site"`
}

var (
	coverageSites []CheckSite // written at package init only

	// Indexed by ub.Behavior.Code (1-based; index 0 absorbs out-of-range
	// codes so the hot path never branches on bounds beyond the mask).
	coverageEvaluated []atomic.Int64
	coverageFired     []atomic.Int64
)

func init() {
	coverageEvaluated = make([]atomic.Int64, len(ub.Catalog)+1)
	coverageFired = make([]atomic.Int64, len(ub.Catalog)+1)
}

// RegisterCheckSite records one check site in the static registry. Call
// from package initialization only.
func RegisterCheckSite(code int, gate, site string) {
	coverageSites = append(coverageSites, CheckSite{Code: code, Gate: gate, Site: site})
}

// CheckSites returns the registered sites sorted by code, then gate, then
// site — the deterministic registry order every report uses.
func CheckSites() []CheckSite {
	out := append([]CheckSite{}, coverageSites...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Code != out[j].Code {
			return out[i].Code < out[j].Code
		}
		if out[i].Gate != out[j].Gate {
			return out[i].Gate < out[j].Gate
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// CoverageHit records one check evaluation on the behavior with the given
// code; fired additionally marks it as detected. One (or two) indexed
// atomic adds: the zero-alloc hot path gated in `make check`.
func CoverageHit(code int, fired bool) {
	if code < 1 || code >= len(coverageEvaluated) {
		code = 0
	}
	coverageEvaluated[code].Add(1)
	if fired {
		coverageFired[code].Add(1)
	}
}

// CoverageTally counts check evaluations for one goroutine — one
// interpreter run — so the hot path touches no shared cache line. Flush
// adds the counts to the ledger.
type CoverageTally struct {
	counts  [][2]int64 // indexed like the ledger: {evaluated, fired}
	touched []int      // codes with a non-zero count, for Flush
}

var tallyPool = sync.Pool{New: func() any {
	return &CoverageTally{counts: make([][2]int64, len(coverageEvaluated)), touched: make([]int, 0, 16)}
}}

// NewCoverageTally returns an empty tally, reused from earlier flushed
// ones where possible.
func NewCoverageTally() *CoverageTally { return tallyPool.Get().(*CoverageTally) }

// Hit counts one check evaluation, as CoverageHit does for the ledger.
func (t *CoverageTally) Hit(code int, fired bool) {
	if code < 1 || code >= len(t.counts) {
		code = 0
	}
	c := &t.counts[code]
	if c[0] == 0 {
		t.touched = append(t.touched, code)
	}
	c[0]++
	if fired {
		c[1]++
	}
}

// Flush adds the tally to the ledger and recycles it; t must not be used
// afterwards.
func (t *CoverageTally) Flush() {
	for _, code := range t.touched {
		c := &t.counts[code]
		coverageEvaluated[code].Add(c[0])
		if c[1] != 0 {
			coverageFired[code].Add(c[1])
		}
		*c = [2]int64{}
	}
	t.touched = t.touched[:0]
	tallyPool.Put(t)
}

// ResetCoverage zeroes the counters (registry entries persist). Test and
// debug-surface plumbing; never on a hot path.
func ResetCoverage() {
	for i := range coverageEvaluated {
		coverageEvaluated[i].Store(0)
		coverageFired[i].Store(0)
	}
}

// CoverageRow is one behavior's ledger line: identity, the sites and
// gates registered for it, and the process-lifetime counters.
type CoverageRow struct {
	Code    int    `json:"code"`
	Key     string `json:"key"` // zero-padded code, "00016"
	Section string `json:"section"`
	Desc    string `json:"desc,omitempty"`
	// Gates and Sites are the distinct registered gate names and site
	// names, sorted.
	Gates     []string `json:"gates"`
	Sites     []string `json:"sites"`
	Evaluated int64    `json:"evaluated"`
	Fired     int64    `json:"fired"`
}

// CoverageLedger is the wire form of GET /v1/coverage and the merge unit
// for cross-shard aggregation: every registered behavior, with counters.
type CoverageLedger struct {
	Schema string `json:"schema"`
	// Registered counts distinct behaviors with at least one check site;
	// Fired counts those whose checks ever fired; Dead = Registered-Fired.
	Registered int           `json:"registered_behaviors"`
	Fired      int           `json:"fired_behaviors"`
	Dead       int           `json:"dead_behaviors"`
	Behaviors  []CoverageRow `json:"behaviors"`
}

// CoverageSnapshot assembles the current ledger: one row per registered
// behavior code, sorted by code, with live counter values.
func CoverageSnapshot() *CoverageLedger {
	sites := CheckSites()
	led := &CoverageLedger{Schema: CoverageSchema}
	var row *CoverageRow
	for _, s := range sites {
		if row == nil || row.Code != s.Code {
			led.Behaviors = append(led.Behaviors, CoverageRow{Code: s.Code, Key: CheckKey(s.Code)})
			row = &led.Behaviors[len(led.Behaviors)-1]
			if b, ok := ub.Lookup(s.Code); ok {
				row.Section = b.Section
				row.Desc = b.Desc
			}
			if s.Code >= 1 && s.Code < len(coverageEvaluated) {
				row.Evaluated = coverageEvaluated[s.Code].Load()
				row.Fired = coverageFired[s.Code].Load()
			}
		}
		row.Gates = appendUnique(row.Gates, s.Gate)
		row.Sites = appendUnique(row.Sites, s.Site)
	}
	led.recount()
	return led
}

// recount rederives the summary counts from the rows.
func (l *CoverageLedger) recount() {
	l.Registered = len(l.Behaviors)
	l.Fired = 0
	for i := range l.Behaviors {
		if l.Behaviors[i].Fired > 0 {
			l.Fired++
		}
	}
	l.Dead = l.Registered - l.Fired
}

// Add merges another ledger's counters into l, matching rows by code;
// rows l has never seen are appended (keeping code order) with the
// other's registry metadata. Nil is a no-op. Addition is commutative, so
// cross-shard aggregation is deterministic regardless of fan-out order.
func (l *CoverageLedger) Add(o *CoverageLedger) {
	if o == nil {
		return
	}
	byCode := make(map[int]*CoverageRow, len(l.Behaviors))
	for i := range l.Behaviors {
		byCode[l.Behaviors[i].Code] = &l.Behaviors[i]
	}
	for i := range o.Behaviors {
		or := &o.Behaviors[i]
		if row := byCode[or.Code]; row != nil {
			row.Evaluated += or.Evaluated
			row.Fired += or.Fired
			for _, g := range or.Gates {
				row.Gates = appendUnique(row.Gates, g)
			}
			for _, s := range or.Sites {
				row.Sites = appendUnique(row.Sites, s)
			}
			continue
		}
		cp := *or
		cp.Gates = append([]string{}, or.Gates...)
		cp.Sites = append([]string{}, or.Sites...)
		l.Behaviors = append(l.Behaviors, cp)
	}
	sort.Slice(l.Behaviors, func(i, j int) bool { return l.Behaviors[i].Code < l.Behaviors[j].Code })
	l.recount()
}

// appendUnique inserts v into a sorted unique string slice.
func appendUnique(xs []string, v string) []string {
	i := sort.SearchStrings(xs, v)
	if i < len(xs) && xs[i] == v {
		return xs
	}
	xs = append(xs, "")
	copy(xs[i+1:], xs[i:])
	xs[i] = v
	return xs
}
