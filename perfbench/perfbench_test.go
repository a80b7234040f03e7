package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/fault"
)

// tinyRun runs one workload at test size and returns the result as
// printed on the last line of standard output.
func tinyRun(t *testing.T, cfg *config) *result {
	t.Helper()
	cfg.seed, cfg.reps, cfg.workers, cfg.tiny = 1, 1, 2, true
	cfg.outDir = t.TempDir()
	var out bytes.Buffer
	res, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	if err := emit(&out, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var printed result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &printed); err != nil {
		t.Fatalf("%s: last line is not the result: %v", cfg.workload, err)
	}
	return &printed
}

// TestPrintsEveryMetric runs every workload of BENCHMARK.json untraced
// and traced, and checks that each prints exactly the metrics the file
// names, with their units, and passes its known-answer checks.
func TestPrintsEveryMetric(t *testing.T) {
	bf, err := readBenchFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEnd := map[string]string{}
	for _, e := range bf.EndToEnd {
		endToEnd[e.Name] = e.Unit
	}
	perLayer := map[string]string{}
	for _, e := range bf.PerLayer {
		perLayer[e.Name] = e.Unit
	}
	for _, w := range []string{"figures", "explore", "serve"} {
		for _, traced := range []bool{false, true} {
			res := tinyRun(t, &config{workload: w, seconds: 0.05, trace: traced})
			want := endToEnd
			if traced {
				want = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			for name, unit := range want {
				got, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s not printed", w, traced, name)
				case got.Unit != unit:
					t.Errorf("%s traced=%v: metric %s unit %q, BENCHMARK.json says %q", w, traced, name, got.Unit, unit)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s traced=%v: metric %s is not in BENCHMARK.json", w, traced, name)
				}
			}
		}
	}
}

// TestInjectedFaultIsOneFailedOp arms one panic at the interpreter's step
// site through the public fault spec grammar. The contained panic must
// fail exactly the one figures pass it hit; the passes after it must
// still meet their known answers.
func TestInjectedFaultIsOneFailedOp(t *testing.T) {
	rules, err := fault.ParseSpec("interp.step=panic*1")
	if err != nil {
		t.Fatal(err)
	}
	res := tinyRun(t, &config{workload: "figures", seconds: 0.2, injector: fault.NewInjector(1, rules...)})
	if res.Failed != 1 || res.Attempted < 3 || res.Correct {
		t.Fatalf("attempted=%d failed=%d correct=%v, want exactly 1 failed op of at least 3 and correct=false",
			res.Attempted, res.Failed, res.Correct)
	}
}

// TestItemRateIgnoresAStolenItem checks that one pass whose item the
// host interrupted does not move the item-median throughput, while a
// slower item in every pass does.
func TestItemRateIgnoresAStolenItem(t *testing.T) {
	p := newPhase()
	p.items, p.passWork = newItemTimes(), 30
	for pass := 0; pass < 5; pass++ {
		p.items.add("a", 0.001)
		p.items.add("b", 0.002)
	}
	p.items.times["b"][3] = 0.020 // a 18 ms steal gap in one pass
	if got, want := p.throughput(), 30/0.003; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("throughput %v, want %v", got, want)
	}
	for i := range p.items.times["a"] {
		p.items.times["a"][i] = 0.004
	}
	if got, want := p.throughput(), 30/0.006; math.Abs(got-want) > 1e-6*want {
		t.Fatalf("after slowing item a: throughput %v, want %v", got, want)
	}
}
