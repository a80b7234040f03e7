// Command ubexplore searches the unspecified evaluation orders of a C
// program for undefined behavior (paper §2.5.2): a program may be defined
// under one compiler's order and undefined under another's — kcc-style
// checking of a single order is not enough.
//
//	$ ubexplore setdenom.c
//	2 distinct behaviors over 3 executions:
//	  behavior 1: exit 2
//	  behavior 2: UB 00039 division by zero
//
// The search fans evaluation-order prefixes out over -j workers and, with
// -por=on (the default), prunes sibling orders whose operands provably
// commute — partial-order reduction, which lets deep expression nests
// that would exhaust any per-order budget finish exhaustively.
//
// With -json the result is the same undefc.api/v1 explore document the
// undefd service serves, so scripts can consume either interchangeably;
// -stream instead emits the service's NDJSON frames (header, one line per
// distinct behavior as it is discovered, trailer) on stdout. -stats adds
// the search accounting to the text form. -timeout bounds the whole
// search; a timed-out search reports the behaviors found so far and
// exits 3.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/driver"
	"repro/internal/runner"
	"repro/internal/search"
	"repro/internal/server"
)

func main() {
	maxRuns := flag.Int("max-runs", 5000, "maximum executions to try")
	stopFirst := flag.Bool("stop-at-first-ub", false, "stop as soon as any UB is found")
	par := flag.Int("j", 0, "parallel search workers (0 = GOMAXPROCS)")
	por := flag.String("por", "on", "partial-order reduction: on or off")
	dedup := flag.String("dedup", "off", "explored-state deduplication: on or off")
	timeout := flag.Duration("timeout", 0, "bound the whole search (0 = no limit)")
	asJSON := flag.Bool("json", false, "emit the undefc.api/v1 explore document instead of text")
	stream := flag.Bool("stream", false, "emit the undefc.api/v1 NDJSON explore frames on stdout")
	stats := flag.Bool("stats", false, "append the search accounting to the text report")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ubexplore [flags] file.c")
		os.Exit(2)
	}
	porOn, err := onOff("por", *por)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubexplore: %v\n", err)
		os.Exit(2)
	}
	dedupOn, err := onOff("dedup", *dedup)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubexplore: %v\n", err)
		os.Exit(2)
	}
	if *asJSON && *stream {
		fmt.Fprintln(os.Stderr, "ubexplore: -json and -stream are mutually exclusive")
		os.Exit(2)
	}
	file := flag.Arg(0)
	src, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubexplore: %v\n", err)
		os.Exit(1)
	}
	prog, err := driver.Compile(string(src), file, driver.Options{})
	if err != nil {
		fmt.Fprintf(os.Stderr, "ubexplore: %v\n", err)
		os.Exit(1)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := search.Options{
		MaxRuns:       *maxRuns,
		StopAtFirstUB: *stopFirst,
		Parallelism:   *par,
		POR:           porOn,
		Dedup:         dedupOn,
	}

	var st *server.ExploreStream
	if *stream {
		st = server.NewExploreStream(os.Stdout, server.ExploreHeader{
			File: file, MaxRuns: *maxRuns, Parallelism: *par, POR: porOn, Dedup: dedupOn,
		})
		opts.OnOutcome = st.Outcome
	}

	res := search.Explore(ctx, prog, opts)
	timedOut := ctx.Err() != nil

	switch {
	case *stream:
		st.Trailer(res, 0, nil)
	case *asJSON:
		if err := runner.WriteJSON(os.Stdout, server.ExploreResponseFrom(file, res)); err != nil {
			fmt.Fprintf(os.Stderr, "ubexplore: %v\n", err)
			os.Exit(1)
		}
	default:
		fmt.Printf("%d distinct behaviors over %d executions (exhausted: %v):\n",
			len(res.Outcomes), res.Runs, res.Exhausted)
		for i, o := range res.Outcomes {
			switch {
			case o.UB != nil:
				fmt.Printf("  behavior %d: UB %05d [C11 §%s] %s\n",
					i+1, o.UB.Behavior.Code, o.UB.Behavior.Section, o.UB.Msg)
			case o.Err != nil:
				fmt.Printf("  behavior %d: error: %v\n", i+1, o.Err)
			default:
				fmt.Printf("  behavior %d: exit %d", i+1, o.ExitCode)
				if o.Output != "" {
					fmt.Printf(" output %q", o.Output)
				}
				fmt.Println()
			}
		}
		if *stats {
			fmt.Printf("stats: %d orders explored, %d pruned (POR), %d states deduped, %d workers, %.1fms\n",
				res.Stats.OrdersExplored, res.Stats.OrdersPruned, res.Stats.StatesDeduped,
				res.Stats.Parallelism, float64(res.Stats.WallNS)/1e6)
		}
		if timedOut {
			fmt.Printf("  search timed out after %v; behaviors above are a lower bound\n", *timeout)
		}
	}
	switch {
	case res.UB() != nil:
		os.Exit(1)
	case timedOut:
		os.Exit(3)
	}
}

// onOff parses the on/off switch flags, mirroring the service's request
// fields so the CLI and the API stay one vocabulary.
func onOff(name, val string) (bool, error) {
	switch val {
	case "on":
		return true, nil
	case "off":
		return false, nil
	}
	return false, fmt.Errorf("-%s: want on or off, got %q", name, val)
}
