package cluster

import (
	"fmt"
	"testing"
)

// TestRingDeterministicAndBalanced pins the two properties routing relies
// on: the same key always maps to the same shard (across independently
// built rings — a restarted router must agree with its predecessor), and
// every shard owns a non-trivial share of key space.
func TestRingDeterministicAndBalanced(t *testing.T) {
	shards := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	a, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRing(shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	const keys = 10000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("source-key-%d", i)
		own := a.Owner(hash64([]byte(k)))
		if got := b.Owner(hash64([]byte(k))); got != own {
			t.Fatalf("ring disagreement on %q: %s vs %s", k, own, got)
		}
		counts[own]++
	}
	for _, s := range shards {
		// 64 vnodes is balance, not perfection: assert every shard owns a
		// real share (≥10% here vs. a fair 33%), not a tight split.
		if counts[s] < keys/10 {
			t.Errorf("shard %s owns only %d/%d keys", s, counts[s], keys)
		}
	}
}

// TestRingReplicas: the replica list is a permutation of the shard set
// led by the owner — the failover path must be able to reach every shard
// without repeats.
func TestRingReplicas(t *testing.T) {
	shards := []string{"a:1", "b:1", "c:1", "d:1"}
	r, err := NewRing(shards, 8)
	if err != nil {
		t.Fatal(err)
	}
	h := hash64([]byte("some-key"))
	reps := r.Replicas(h)
	if len(reps) != len(shards) {
		t.Fatalf("replicas = %v, want all %d shards", reps, len(shards))
	}
	if reps[0] != r.Owner(h) {
		t.Errorf("replicas[0] = %s, owner = %s", reps[0], r.Owner(h))
	}
	seen := map[string]bool{}
	for _, s := range reps {
		if seen[s] {
			t.Errorf("replica %s repeated in %v", s, reps)
		}
		seen[s] = true
	}
}

func TestRingRejectsBadShardSets(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty shard set accepted")
	}
	if _, err := NewRing([]string{"a:1", "a:1"}, 0); err == nil {
		t.Error("duplicate shard accepted")
	}
}
