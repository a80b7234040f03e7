// Package cluster turns N undefd shards into one fault-tolerant service:
// a front router consistent-hashes each request's raw body bytes onto a
// shard ring so identical requests land on the shard that already has
// them compiled (the shard alone computes the source identity,
// driver.SourceKey, its cache and artifact store key on), a per-shard
// health model (periodic /readyz probes plus passive error and latency
// signals) feeds a per-shard circuit breaker (closed → open →
// half-open), and a bounded retry policy with jittered exponential
// backoff fails a request over to the next ring replica when its home
// shard is down, draining, or answering 429 — while preserving the
// single-box serving invariants: every response a client receives is
// counted exactly once in the router's delivered tally, streams that
// lose their upstream end in a typed trailer error rather than a
// truncated body, and a draining shard leaves the ring before its
// listener closes.
package cluster

import (
	"fmt"
	"sort"
)

// Ring is a consistent-hash ring over shard addresses. Each shard owns
// VNodes points on the ring; a key hash routes to the shard owning the
// first point at or after it, and its failover replicas are the
// next distinct shards clockwise. The ring itself is immutable — shard
// liveness is the breaker's business, not the ring's — so routing stays
// deterministic across shard deaths and restarts: a recovered shard gets
// its exact key range back.
type Ring struct {
	shards []string
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int // index into shards
}

// DefaultVNodes is the virtual-node count per shard when NewRing is given
// zero: enough points that 3 shards split the keyspace within a few
// percent of evenly.
const DefaultVNodes = 64

// NewRing builds a ring over the given shard addresses. Addresses must be
// non-empty and distinct.
func NewRing(shards []string, vnodes int) (*Ring, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one shard")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	seen := make(map[string]bool, len(shards))
	r := &Ring{shards: append([]string(nil), shards...)}
	for i, s := range r.shards {
		if s == "" {
			return nil, fmt.Errorf("cluster: shard %d has an empty address", i)
		}
		if seen[s] {
			return nil, fmt.Errorf("cluster: duplicate shard address %q", s)
		}
		seen[s] = true
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hash64([]byte(fmt.Sprintf("%s#%d", s, v))), shard: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// Shards returns the ring's member addresses in construction order.
func (r *Ring) Shards() []string { return append([]string(nil), r.shards...) }

// Replicas returns every shard in the preference order of a key hash
// (hash64 of the key): the owner first, then each distinct shard met
// walking the ring clockwise. A router that exhausts the list has tried
// the whole cluster.
func (r *Ring) Replicas(h uint64) []string {
	// First point at or after h (wrapping).
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, len(r.shards))
	seen := make([]bool, len(r.shards))
	for n := 0; n < len(r.points) && len(out) < len(r.shards); n++ {
		p := r.points[(i+n)%len(r.points)]
		if !seen[p.shard] {
			seen[p.shard] = true
			out = append(out, r.shards[p.shard])
		}
	}
	return out
}

// Owner returns the key hash's home shard (Replicas' first entry).
func (r *Ring) Owner(h uint64) string { return r.Replicas(h)[0] }

// hash64 is 64-bit FNV-1a over b, read in place: a router hashes whole
// request bodies (batches up to 16 MiB) with it.
func hash64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
