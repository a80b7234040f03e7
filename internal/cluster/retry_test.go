package cluster

import (
	"math/rand"
	"testing"
)

// TestBackoffBounds: every draw stays inside the full-jitter window
// [0, min(backoffMax, backoffBase·2ⁿ)], and the ceiling actually grows
// with the attempt number until it saturates at backoffMax.
func TestBackoffBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ceil := backoffBase
	for attempt := 1; attempt <= 10; attempt++ {
		for i := 0; i < 200; i++ {
			d := backoff(attempt, rng)
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d: backoff %v outside [0, %v]", attempt, d, ceil)
			}
		}
		ceil = min(2*ceil, backoffMax)
	}
	if backoff(0, rng) != 0 {
		t.Error("attempt 0 should not sleep")
	}
}

// TestBackoffSpread: full jitter must actually spread draws across the
// window — a constant (or near-constant) backoff would re-synchronize the
// very retry storm the jitter exists to break up.
func TestBackoffSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	low, high := 0, 0
	for i := 0; i < 1000; i++ {
		if backoff(1, rng) < backoffBase/2 {
			low++
		} else {
			high++
		}
	}
	if low < 200 || high < 200 {
		t.Errorf("draws not spread: %d below midpoint, %d above", low, high)
	}
}
