package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// phase accumulates one timed phase: the ops it ran, their latencies,
// and the process-level costs read around it.
type phase struct {
	ops    int64
	failed int64
	work   float64   // throughput numerator (cells for figures, ops otherwise)
	lat    []float64 // per-op wall latency, ms

	// marks close the phase's windows: the elapsed time and the work
	// done when each window ended. Throughput is their median rate.
	start    time.Time
	marks    []mark
	window   int64 // record closes a window every window ops; 0: the workload marks
	wall     time.Duration
	cpu      time.Duration
	peakLive uint64
	rt       runtimeDelta

	// layer sums counters and times a workload reads from the program's
	// public stats while the phase runs; the per-layer metrics divide them.
	mu    sync.Mutex
	layer map[string]float64
	// hists are the shards' server-side latency histograms over the
	// phase, and routerSelf the router self times of the pulled traces
	// (serve only).
	hists      map[string]*obs.HistogramSnapshot
	routerSelf []float64
	// cellP50 and cellP90 are each figures pass's quantiles of cell
	// latency in ms: a run holds too few passes for a tail of its own.
	cellP50, cellP90 []float64
	// items, when set, times the fixed items a pass is made of, and
	// passWork is the throughput work of one pass; throughput is then
	// itemRate.
	items    *itemTimes
	passWork float64
}

type mark struct {
	at   time.Duration
	work float64
	ops  int64
}

func newPhase() *phase { return &phase{layer: map[string]float64{}} }

// record adds one finished op that did work units of throughput work.
func (p *phase) record(d time.Duration, work float64, ok bool) {
	p.mu.Lock()
	p.ops++
	if !ok {
		p.failed++
	}
	p.work += work
	p.lat = append(p.lat, float64(d)/float64(time.Millisecond))
	if p.window > 0 && p.ops%p.window == 0 {
		p.markLocked()
	}
	p.mu.Unlock()
}

// mark closes the current throughput window.
func (p *phase) mark() {
	p.mu.Lock()
	p.markLocked()
	p.mu.Unlock()
}

func (p *phase) markLocked() {
	p.marks = append(p.marks, mark{time.Since(p.start), p.work, p.ops})
}

// throughput is the median over the phase's windows of work per wall
// second: a window the hypervisor stalled does not move it. A phase
// without windows falls back to its overall rate. A phase of itemized
// passes (figures, explore) reports itemRate instead.
func (p *phase) throughput() float64 {
	if p.items != nil && len(p.items.order) > 0 {
		return p.itemRate()
	}
	var rates []float64
	var prev mark
	for _, m := range p.marks {
		if dt := (m.at - prev.at).Seconds(); dt > 0 {
			rates = append(rates, (m.work-prev.work)/dt)
		}
		prev = m
	}
	if len(rates) == 0 {
		return ratio(p.work, p.wall.Seconds())
	}
	return median(rates)
}

// itemRate is the work of one pass over the sum, across the pass's
// items, of each item's median wall time over the phase's passes. The
// host takes a shared vCPU away in gaps of 0.2-20 ms for 0-30% of the
// time, so a whole pass (0.3-1 s) always collects its share of them,
// while an item of a millisecond or less escapes them in most passes
// and its median is its uninterrupted time. The rate therefore also
// leaves out costs that land on an item in fewer than half of the
// passes, such as most GC pauses: cpu_ms_per_op counts those. An item
// longer than the gaps (explore's capped searches) still collects them.
func (p *phase) itemRate() float64 {
	return ratio(p.passWork, p.items.total())
}

// itemTimes records the wall times of named items that recur, such as
// the steps of every set-up or the segments of every figures pass. It
// is not safe for concurrent use.
type itemTimes struct {
	order []string
	times map[string][]float64
}

func newItemTimes() *itemTimes { return &itemTimes{times: map[string][]float64{}} }

// add records one wall time of the item name, in seconds.
func (it *itemTimes) add(name string, seconds float64) {
	if _, ok := it.times[name]; !ok {
		it.order = append(it.order, name)
	}
	it.times[name] = append(it.times[name], seconds)
}

// time runs fn as the item name and records its wall time.
func (it *itemTimes) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	it.add(name, time.Since(t0).Seconds())
	return err
}

// total is the sum of the items' median times.
func (it *itemTimes) total() float64 {
	var sum float64
	for _, name := range it.order {
		sum += median(it.times[name])
	}
	return sum
}

func (p *phase) add(key string, v float64) {
	p.mu.Lock()
	p.layer[key] += v
	p.mu.Unlock()
}

func (p *phase) get(key string) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.layer[key]
}

// perOp divides a layer sum by the phase's op count.
func (p *phase) perOp(key string) float64 { return ratio(p.get(key), float64(p.ops)) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// measure runs fn as a timed phase, reading wall time, process CPU time
// (user+sys from getrusage), the runtime's GC and allocation counters,
// and the peak of the live heap the GC reports.
func measure(p *phase, fn func()) {
	peak := watchLiveHeap()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	p.start = time.Now()
	fn()
	p.wall = time.Since(p.start)
	p.cpu = cpuTime() - cpu0
	p.rt = readRuntime().sub(rt0)
	p.peakLive = peak()
}

// watchLiveHeap records the live heap the GC reports at the end of every
// cycle until the returned function is called; that collects once more
// and returns the largest.
// The live-heap figure changes only when a cycle ends, so a finalizer
// that re-arms itself each cycle sees every value without polling.
func watchLiveHeap() (stop func() uint64) {
	var mu sync.Mutex
	var peak uint64
	stopped := false
	read := func() {
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		metrics.Read(s)
		mu.Lock()
		peak = max(peak, s[0].Value.Uint64())
		mu.Unlock()
	}
	var arm func()
	arm = func() {
		sentinel := new([16]uintptr)
		runtime.SetFinalizer(sentinel, func(*[16]uintptr) {
			mu.Lock()
			done := stopped
			mu.Unlock()
			if !done {
				read()
				arm()
			}
		})
	}
	arm()
	return func() uint64 {
		// A heap that grows to the end (serve's caches) peaks after the
		// last cycle; one more cycle measures it.
		runtime.GC()
		read()
		mu.Lock()
		defer mu.Unlock()
		stopped = true
		return peak
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeDelta is the difference of the runtime/metrics counters the
// go.* layer metrics use.
type runtimeDelta struct {
	allocs   float64 // heap objects allocated
	gcCycles float64
	gcCPU    float64 // seconds, runtime estimate
	totalCPU float64 // seconds, runtime estimate
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	num := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeDelta{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{a.allocs - b.allocs, a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// heapAllocs reads the cumulative allocated-object count.
func heapAllocs() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64())
}

// latency is the q-quantile of op latency in ms. When every window holds
// at least 20 ops it is the median over the windows of each window's
// quantile, so a stall confined to a minority of windows does not move
// it; otherwise it is the quantile over all ops.
func (p *phase) latency(q float64) float64 {
	var per []float64
	var prev int64
	for _, m := range p.marks {
		if m.ops-prev < 20 {
			per = nil
			break
		}
		per = append(per, quantile(append([]float64(nil), p.lat[prev:m.ops]...), q))
		prev = m.ops
	}
	if len(per) == 0 {
		return quantile(append([]float64(nil), p.lat...), q)
	}
	return median(per)
}

// quantile is the linear-interpolation quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// ---------- machine facts ----------

// facts are printed with every run so that a run inflated by the
// hypervisor can be told apart. They are diagnostics only: no metric is
// normalised by them.
type facts struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Seed       int64   `json:"seed"`
	Ops        []int64 `json:"ops_per_phase"`
	StealShare float64 `json:"host_steal_share"`
	RefLoopMS  float64 `json:"reference_loop_ms"`
	RefMemMS   float64 `json:"reference_mem_ms"`
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat and returns the
// steal ticks and the total ticks; ok is false where the file is absent.
func cpuTicks() (steal, total float64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total, true
}

// refLoop times a fixed integer loop; on an idle, unstolen core its time
// is constant, so a slow reading marks a run that shared its CPU.
func refLoop() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	if x == 0 {
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return float64(d) / float64(time.Millisecond)
}

// refMem times a fixed walk of random links through a 16 MiB table, a
// loop bound by cache misses: memory-bound work slows under a busy
// neighbour more than refLoop shows.
func refMem() float64 {
	const n = 1 << 22
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's shuffle makes one cycle through every slot.
	x := uint64(0x9E3779B97F4A7C15)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	p := uint32(0)
	for i := 0; i < 1<<18; i++ {
		p = next[p]
	}
	d := time.Since(t0)
	if p == n {
		fmt.Fprintln(os.Stderr, "unreachable")
	}
	return float64(d) / float64(time.Millisecond)
}

func newFacts(seed int64) *facts {
	return &facts{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Seed:       seed,
		RefLoopMS:  refLoop(),
		RefMemMS:   refMem(),
	}
}
