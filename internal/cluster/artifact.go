package cluster

// The router's side of the artifact tier: it never stores, decodes or
// locates a frame itself (a shard's fetcher sweeps its peers for that).
// It reports the shards' cache and artifact counters on /metrics; its
// single-flight group (proxy.go) holds identical analyze bodies so N
// clients submitting the same cold translation unit cost the cluster one
// compile.

import (
	"context"
	"encoding/json"

	"repro/internal/obs"
	"repro/internal/server"
)

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
