package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strings"
)

// benchFile is the part of BENCHMARK.json the steadiness report reads.
type benchFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them (the
// "exclusive" method), so the report agrees with the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0], d[0]
	}
	m := ld + 1
	var q [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// steadyReport runs the workload k times, each in a fresh process with
// its own seed, and prints each end-to-end metric's median and quartile
// spread (IQR over median) beside its bound. It names every metric whose
// spread breaks its bound, and every one above a third of it.
func steadyReport(stdout io.Writer, workload string, seed int64, seconds float64, k int) int {
	bf, err := readBenchFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	incorrect := 0
	for i := 0; i < k; i++ {
		var out bytes.Buffer
		cmd := exec.Command(exe, "--workload", workload, "--seed", fmt.Sprint(seed+int64(i)),
			"--seconds", fmt.Sprint(seconds), "--trace", "0")
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run %d: %v\n", i, err)
			return 1
		}
		if !res.Correct {
			incorrect++
		}
		for name, mv := range res.Metrics {
			values[name] = append(values[name], mv.Value)
		}
		for _, l := range lines {
			if strings.Contains(l, " facts ") {
				fmt.Fprintf(stdout, "run %d %s\n", i, l)
			}
		}
		fmt.Fprintf(stdout, "run %d seed %d: %s\n", i, seed+int64(i), lines[len(lines)-1])
	}
	fmt.Fprintf(stdout, "%-18s %12s %8s %7s  %s\n", "metric", "median", "spread", "bound", "verdict")
	broken := 0
	for _, e := range bf.EndToEnd {
		vs := values[e.Name]
		if len(vs) == 0 {
			fmt.Fprintf(stdout, "%-18s missing\n", e.Name)
			broken++
			continue
		}
		q1, q2, q3 := quartiles(vs)
		spread := ratio(q3-q1, q2)
		verdict := "ok"
		switch {
		case e.Name == "setup_s":
			// Only the median of set-up time is compared between builds.
			verdict = "spread not judged"
		case spread > e.Bound:
			verdict = "BREAKS ITS BOUND"
			broken++
		case spread > e.Bound/3:
			verdict = "above a third of its bound"
		}
		fmt.Fprintf(stdout, "%-18s %12.4f %8.4f %7.3f  %s\n", e.Name, q2, spread, e.Bound, verdict)
	}
	fmt.Fprintf(stdout, "%s: %d runs, %d incorrect, %d metrics break their bound\n", workload, k, incorrect, broken)
	if broken > 0 || incorrect > 0 {
		return 1
	}
	return 0
}
