package cluster

// The router's side of the artifact tier: it never stores or decodes a
// frame itself, but it knows two things the shards cannot — which shard
// last answered for a key (the directory, driving the X-Undefc-Artifact-
// Peer hint on forwards) and which keys are being compiled right now
// anywhere in the cluster (its single-flight group, generalizing the
// shards' across nodes: N clients submitting the same cold translation
// unit through the router cost the cluster one compile, with followers
// forwarded only after the leader's forward reaches a shard — onto a
// now-warm cache or a now-populated artifact store).

import (
	"container/list"
	"context"
	"encoding/json"
	"sync"

	"repro/internal/obs"
	"repro/internal/server"
)

// isArtifactKey reports whether a ring key is a driver.SourceKey — the
// only keys the artifact machinery acts on (batch and unparseable bodies
// route on raw-bytes keys with a prefix, which fail this test).
func isArtifactKey(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// directory is a bounded LRU of key → the shard address that most
// recently delivered an analyze answer for it — which, with the artifact
// tier armed, is the shard whose store holds the compiled frame. It is a
// hint, never an authority: a wrong entry costs one failed peer try
// before the fetcher sweeps or the shard compiles.
type directory struct {
	mu  sync.Mutex
	max int
	m   map[string]*list.Element
	lru *list.List // front = most recently recorded
}

type dirEntry struct {
	key, addr string
}

func newDirectory(max int) *directory {
	return &directory{max: max, m: make(map[string]*list.Element), lru: list.New()}
}

func (d *directory) record(key, addr string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if el, ok := d.m[key]; ok {
		el.Value = dirEntry{key, addr}
		d.lru.MoveToFront(el)
		return
	}
	d.m[key] = d.lru.PushFront(dirEntry{key, addr})
	for d.lru.Len() > d.max {
		oldest := d.lru.Back()
		d.lru.Remove(oldest)
		delete(d.m, oldest.Value.(dirEntry).key)
	}
}

func (d *directory) lookup(key string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	el, ok := d.m[key]
	if !ok {
		return "", false
	}
	d.lru.MoveToFront(el)
	return el.Value.(dirEntry).addr, true
}

func (d *directory) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lru.Len()
}

// enrichMetrics fans out to the shards' own /metrics (JSON) and grafts
// each shard's compile-cache and artifact-tier counters onto its entry,
// plus a cluster-wide aggregate. It runs only on the /metrics request
// path — Metrics() itself stays network-free — and a shard that cannot
// answer within the probe budget simply contributes no block.
func (rt *Router) enrichMetrics(ctx context.Context, m *RouterMetrics) {
	var cov *obs.CoverageLedger
	rt.fanOut(ctx, "/metrics", 16<<20, func(i int, body []byte) {
		var sr server.MetricsResponse
		if json.Unmarshal(body, &sr) != nil {
			return
		}
		sm := &m.Shards[i] // Metrics lists the shards in ring order
		sm.Cache = &sr.Cache
		sm.Artifact = sr.Artifact
		sm.Latency = sr.Latency
		if sr.Coverage != nil {
			if cov == nil {
				cov = &obs.CoverageLedger{Schema: obs.CoverageSchema}
			}
			cov.Add(sr.Coverage)
		}
	})

	agg := &ClusterAggregate{}
	for i := range m.Shards {
		c := m.Shards[i].Cache
		if c == nil {
			continue
		}
		agg.Shards++
		agg.Cache.Hits += c.Hits
		agg.Cache.Misses += c.Misses
		agg.Cache.Errors += c.Errors
		agg.Cache.Waits += c.Waits
		agg.Cache.Evictions += c.Evictions
		agg.Cache.CompileTime += c.CompileTime
		agg.Cache.ArtifactHits += c.ArtifactHits
		agg.Cache.Compiles += c.Compiles
		if a := m.Shards[i].Artifact; a != nil {
			agg.Artifact.DiskHits += a.DiskHits
			agg.Artifact.DiskMisses += a.DiskMisses
			agg.Artifact.DiskEntries += a.DiskEntries
			agg.Artifact.DiskBytes += a.DiskBytes
			agg.Artifact.Stores += a.Stores
			agg.Artifact.StoreErrors += a.StoreErrors
			agg.Artifact.Evictions += a.Evictions
			agg.Artifact.BytesStored += a.BytesStored
			agg.Artifact.PeerHits += a.PeerHits
			agg.Artifact.PeerMisses += a.PeerMisses
			agg.Artifact.PeerErrors += a.PeerErrors
			agg.Artifact.BytesFetched += a.BytesFetched
			agg.Artifact.Corrupt += a.Corrupt
			agg.Artifact.EncodeErrors += a.EncodeErrors
			agg.Artifact.Served += a.Served
			agg.Artifact.BytesServed += a.BytesServed
		}
	}
	// Merge the shards' per-stage latency histograms bucket-by-bucket:
	// stage keys come from whichever shards answered, and merging snapshots
	// is commutative, so the result is the same regardless of fan-out order.
	for i := range m.Shards {
		for stage, hs := range m.Shards[i].Latency {
			if hs == nil {
				continue
			}
			if agg.Latency == nil {
				agg.Latency = make(map[string]*obs.HistogramSnapshot)
			}
			if cur := agg.Latency[stage]; cur == nil {
				cp := *hs
				cp.Buckets = append([]int64{}, hs.Buckets...)
				agg.Latency[stage] = &cp
			} else {
				cur.Merge(hs)
			}
		}
	}
	agg.Coverage = cov
	if agg.Shards > 0 || agg.Latency != nil || agg.Coverage != nil {
		m.Aggregate = agg
	}
}
