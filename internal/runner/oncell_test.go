package runner

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sema"
	"repro/internal/suite"
	"repro/internal/tools"
)

// countingTool is a trivial Tool that counts AnalyzeProgram invocations,
// so a test can observe worker progress independently of OnCell delivery.
type countingTool struct {
	calls atomic.Int64
}

func (t *countingTool) Name() string { return "counting" }

func (t *countingTool) AnalyzeProgram(ctx context.Context, prog *sema.Program, file string) tools.Report {
	t.calls.Add(1)
	return tools.Report{Verdict: tools.Accepted}
}

func onCellSuite(n int) *suite.Suite {
	s := &suite.Suite{Name: "oncell-probe"}
	for i := 0; i < n; i++ {
		s.Cases = append(s.Cases, suite.Case{
			Name:   fmt.Sprintf("case%02d", i),
			Source: fmt.Sprintf("int main(void) { return %d; }", i),
			Bad:    false,
		})
	}
	return s
}

// TestOnCellSlowConsumer pins the Options.OnCell contract: a consumer that
// blocks must not stall the workers. The first delivery parks until every
// cell has executed — if delivery ran on a worker goroutine (the old
// design), the pool could never finish while the callback blocks, and the
// wait below would time out.
func TestOnCellSlowConsumer(t *testing.T) {
	const cases = 8
	s := onCellSuite(cases)
	ct := &countingTool{}

	delivered := 0
	first := true
	opts := Options{
		Parallelism: 4,
		OnCell: func(c Cell) {
			if first {
				first = false
				deadline := time.Now().Add(10 * time.Second)
				for ct.calls.Load() < cases {
					if time.Now().After(deadline) {
						t.Error("workers stalled behind a blocking OnCell consumer")
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
			delivered++
		},
	}
	m, err := RunMatrix(s, []tools.Tool{ct}, opts)
	if err != nil {
		t.Fatal(err)
	}
	// RunMatrix does not return until every delivery has been made, so a
	// plain read of the (callback-goroutine-owned) counter is safe here.
	if delivered != cases {
		t.Fatalf("delivered %d cells, want %d", delivered, cases)
	}
	if got := ct.calls.Load(); got != cases {
		t.Fatalf("analyzed %d cells, want %d", got, cases)
	}
	if m.CellTime == nil || m.CellTime.Count != cases {
		t.Fatalf("CellTime missing or wrong: %+v", m.CellTime)
	}
}

// TestOnCellSerialized asserts deliveries never overlap even though they
// run off-worker: the single delivery goroutine is the serialization.
func TestOnCellSerialized(t *testing.T) {
	s := onCellSuite(16)
	ct := &countingTool{}
	var inFlight, overlaps atomic.Int64
	opts := Options{
		Parallelism: 8,
		OnCell: func(c Cell) {
			if inFlight.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
			inFlight.Add(-1)
		},
	}
	if _, err := RunMatrix(s, []tools.Tool{ct}, opts); err != nil {
		t.Fatal(err)
	}
	if n := overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping OnCell invocations; contract requires serialization", n)
	}
}
