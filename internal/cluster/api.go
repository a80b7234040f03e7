package cluster

// The undefc.cluster/v1 wire types: the router's /metrics body. The
// per-verdict delivered counters are the cluster's source of truth for
// the serving-invariants audit — a verdict is counted here exactly once,
// at the moment its response is relayed to a client, keyed additionally
// by the shard instance that produced it so the audit can reconcile the
// live shards' own counters against what was actually delivered (and
// attribute the remainder to killed incarnations).

import (
	"repro/internal/artifact"
	"repro/internal/driver"
	"repro/internal/obs"
)

// MetricsSchema identifies the router metrics wire format.
const MetricsSchema = "undefc.cluster/v1"

// ForwardStats aggregates the router's forwarding work.
type ForwardStats struct {
	// Attempts counts every forward try, including retries; Delivered
	// counts responses relayed to clients.
	Attempts  int64 `json:"attempts"`
	Delivered int64 `json:"delivered"`
	// Failures counts attempts that died in transport (or by injection)
	// before a response; Retries counts the follow-up attempts those
	// triggered; Failovers counts retries that moved to a different shard.
	Failures  int64 `json:"failures"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	// Upstream429 counts shard backpressure answers the router failed
	// over; Relayed429 counts the ones it ran out of replicas for and
	// relayed to the client.
	Upstream429 int64 `json:"upstream_429"`
	Relayed429  int64 `json:"relayed_429"`
	// NoShards counts requests refused because no shard was available;
	// UpstreamLost counts streams that lost their shard mid-flight and
	// were terminated with a typed trailer error.
	NoShards     int64 `json:"no_shards"`
	UpstreamLost int64 `json:"upstream_lost"`
}

// ShardMetrics is the router's health view of one shard.
type ShardMetrics struct {
	Addr string `json:"addr"`
	// Instance is the shard's boot identity as of the last response or
	// probe; a change means the process restarted with fresh counters.
	Instance string `json:"instance,omitempty"`
	// State summarizes routability: "ready", "draining", "cold", or the
	// breaker state when it is not closed ("open", "half-open").
	State      string       `json:"state"`
	Breaker    BreakerStats `json:"breaker"`
	Probes     int64        `json:"probes"`
	ProbeFails int64        `json:"probe_fails"`
	Forwards   int64        `json:"forwards"`
	Errors     int64        `json:"errors"`
	// LatencyEWMANS is the passive forward-latency signal (α=1/8).
	LatencyEWMANS int64 `json:"latency_ewma_ns,omitempty"`
	// Cache and Artifact are the shard's own compile-cache and
	// artifact-tier counters, grafted in by the /metrics fan-out; absent
	// when the shard could not answer within the probe budget (or has no
	// artifact tier). Latency is the shard's own per-stage histogram set,
	// grafted the same way — the mergeable raw buckets, not just the EWMA
	// the router measures from outside.
	Cache    *driver.CacheStats                `json:"cache,omitempty"`
	Artifact *artifact.Stats                   `json:"artifact,omitempty"`
	Latency  map[string]*obs.HistogramSnapshot `json:"latency,omitempty"`
}

// ArtifactRouting is the router's own artifact machinery: the directory
// behind the peer hints and the cluster-wide single-flight group.
type ArtifactRouting struct {
	// Coalesced counts forwards held behind an identical in-flight key —
	// compiles the cluster did NOT run twice.
	Coalesced int64 `json:"coalesced"`
	// Hints counts forwards stamped with an X-Undefc-Artifact-Peer header.
	Hints int64 `json:"hints"`
	// DirectoryKeys is the current key→holder directory size.
	DirectoryKeys int64 `json:"directory_keys"`
}

// ClusterAggregate sums the per-shard cache and artifact counters over
// the Shards entries that answered the /metrics fan-out.
type ClusterAggregate struct {
	// Shards counts how many shards contributed to the sums.
	Shards   int64             `json:"shards"`
	Cache    driver.CacheStats `json:"cache"`
	Artifact artifact.Stats    `json:"artifact"`
	// Latency merges the shards' per-stage histograms bucket-by-bucket, so
	// the router-side p50/p95/p99 are true cluster quantiles rather than
	// quantiles-of-quantiles.
	Latency map[string]*obs.HistogramSnapshot `json:"latency,omitempty"`
	// Coverage merges the shards' UB check-site coverage ledgers.
	Coverage *obs.CoverageLedger `json:"coverage,omitempty"`
}

// RouterMetrics is the body of the router's GET /metrics.
type RouterMetrics struct {
	Schema   string           `json:"schema"`
	UptimeNS int64            `json:"uptime_ns"`
	Draining bool             `json:"draining,omitempty"`
	Requests map[string]int64 `json:"requests"`
	Forward  ForwardStats     `json:"forward"`
	// Delivered counts verdicts relayed to clients on /v1/analyze, by
	// verdict string: the exact client-side tally, counted once per
	// response. DeliveredByInstance breaks the same counts down by the
	// shard instance that served them.
	Delivered           map[string]int64            `json:"delivered,omitempty"`
	DeliveredByInstance map[string]map[string]int64 `json:"delivered_by_instance,omitempty"`
	Shards              []ShardMetrics              `json:"shards"`
	// Artifact is the router's own artifact-routing state; Aggregate sums
	// the shards' cache/artifact counters (fan-out on /metrics only).
	Artifact  *ArtifactRouting  `json:"artifact,omitempty"`
	Aggregate *ClusterAggregate `json:"aggregate,omitempty"`
}
