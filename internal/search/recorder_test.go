package search

import (
	"strings"
	"testing"
)

// hashOutput is the dedup key's output component computed from scratch:
// FNV-1a over the whole output.
func hashOutput(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// TestOutputDigestIncremental: the recorder hashes each output byte once,
// across any split of the output into writes and digests, and a reset
// starts the digest over.
func TestOutputDigestIncremental(t *testing.T) {
	r := newRecorder(&explorer{})
	for run := 0; run < 2; run++ {
		r.reset(nil)
		if got, want := r.outputDigest(), hashOutput(""); got != want {
			t.Fatalf("run %d: empty output digest %x, want %x", run, got, want)
		}
		for i, chunk := range []string{"fib", "", "(14) = ", "377\n", strings.Repeat("x", 1000), "\x00\xff"} {
			r.sink.WriteString(chunk)
			for k := 0; k < 2; k++ { // a second digest with no new bytes changes nothing
				if got, want := r.outputDigest(), hashOutput(r.sink.String()); got != want {
					t.Fatalf("run %d, after chunk %d: digest %x, want %x", run, i, got, want)
				}
			}
		}
	}
}
