package server

// The Prometheus text exposition of /metrics. The JSON body stays the
// canonical format (the API's own consumers and undefbench read it); this
// renderer is a derived view of the same MetricsResponse so the two can
// never disagree. Everything is rendered in a fixed order — maps are
// sorted — so consecutive scrapes of an idle server are byte-identical.

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"repro/internal/obs"
)

// writePrometheus renders m in the Prometheus text exposition format
// (version 0.0.4), the content type Prometheus scrapers negotiate.
func writePrometheus(w http.ResponseWriter, m *MetricsResponse) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	promGauge(w, "undefc_uptime_seconds", "Seconds since the server started.", float64(m.UptimeNS)/1e9)

	fmt.Fprintf(w, "# HELP undefc_requests_total Requests received, by route.\n# TYPE undefc_requests_total counter\n")
	for _, k := range sortedKeys(m.Requests) {
		fmt.Fprintf(w, "undefc_requests_total{route=%q} %d\n", k, m.Requests[k])
	}
	fmt.Fprintf(w, "# HELP undefc_verdicts_total Analyze verdicts rendered, by verdict.\n# TYPE undefc_verdicts_total counter\n")
	for _, k := range sortedKeys(m.Verdicts) {
		fmt.Fprintf(w, "undefc_verdicts_total{verdict=%q} %d\n", k, m.Verdicts[k])
	}
	fmt.Fprintf(w, "# HELP undefc_batch_cells_total Streamed batch cells, by verdict.\n# TYPE undefc_batch_cells_total counter\n")
	for _, k := range sortedKeys(m.BatchCells) {
		fmt.Fprintf(w, "undefc_batch_cells_total{verdict=%q} %d\n", k, m.BatchCells[k])
	}
	promCounter(w, "undefc_panics_total", "Handler panics contained by the serve-stage guard.", m.Panics)

	promGauge(w, "undefc_queue_depth", "Requests waiting for admission.", float64(m.Queue.Depth))
	promGauge(w, "undefc_queue_depth_max", "High-water mark of the wait line.", float64(m.Queue.MaxDepth))
	promGauge(w, "undefc_queue_active", "Admitted requests currently executing.", float64(m.Queue.Active))
	promGauge(w, "undefc_queue_active_max", "High-water mark of executing requests.", float64(m.Queue.MaxActive))
	promCounter(w, "undefc_queue_admitted_total", "Requests admitted.", m.Queue.Admitted)
	promCounter(w, "undefc_queue_rejected_total", "Requests rejected at the door (429).", m.Queue.Rejected)
	promCounter(w, "undefc_queue_cancelled_total", "Waiters whose request ended before a slot freed.", m.Queue.Cancelled)

	promCounter(w, "undefc_coalesce_leaders_total", "Requests that ran an analysis.", m.Coalesce.Leaders)
	promCounter(w, "undefc_coalesce_followers_total", "Requests served by sharing a leader's flight.", m.Coalesce.Followers)

	promCounter(w, "undefc_cache_hits_total", "Compile-cache hits.", m.Cache.Hits)
	promCounter(w, "undefc_cache_misses_total", "Compile-cache misses (frontend passes).", m.Cache.Misses)
	promCounter(w, "undefc_cache_errors_total", "Frontend passes that failed.", m.Cache.Errors)
	promCounter(w, "undefc_cache_waits_total", "Single-flight waits on an in-flight compile.", m.Cache.Waits)
	promCounter(w, "undefc_cache_evictions_total", "Cache entries dropped.", m.Cache.Evictions)
	promCounter(w, "undefc_cache_artifact_hits_total", "Cache misses served by the artifact tier instead of a compile.", m.Cache.ArtifactHits)
	promCounter(w, "undefc_cache_compiles_total", "Cache misses that ran the frontend.", m.Cache.Compiles)

	if a := m.Artifact; a != nil {
		promCounter(w, "undefc_artifact_disk_hits_total", "Artifact loads served from the local store.", a.DiskHits)
		promCounter(w, "undefc_artifact_disk_misses_total", "Artifact loads the local store could not serve.", a.DiskMisses)
		promGauge(w, "undefc_artifact_disk_entries", "Frames resident in the local store.", float64(a.DiskEntries))
		promGauge(w, "undefc_artifact_disk_bytes", "Bytes resident in the local store.", float64(a.DiskBytes))
		promCounter(w, "undefc_artifact_stores_total", "Frames persisted to the local store.", a.Stores)
		promCounter(w, "undefc_artifact_store_errors_total", "Frame persists that failed.", a.StoreErrors)
		promCounter(w, "undefc_artifact_evictions_total", "Frames evicted by the size cap.", a.Evictions)
		promCounter(w, "undefc_artifact_peer_hits_total", "Artifact loads served by a peer fetch.", a.PeerHits)
		promCounter(w, "undefc_artifact_peer_misses_total", "Peer sweeps that found no artifact.", a.PeerMisses)
		promCounter(w, "undefc_artifact_peer_errors_total", "Failed peer-fetch attempts (dead peer, torn body, bad frame).", a.PeerErrors)
		promCounter(w, "undefc_artifact_bytes_fetched_total", "Frame bytes fetched from peers.", a.BytesFetched)
		promCounter(w, "undefc_artifact_corrupt_total", "Frames or payloads that failed validation anywhere.", a.Corrupt)
		promCounter(w, "undefc_artifact_encode_errors_total", "Programs that could not be serialized.", a.EncodeErrors)
		promCounter(w, "undefc_artifact_served_total", "Frames served to fetching peers.", a.Served)
		promCounter(w, "undefc_artifact_bytes_served_total", "Frame bytes served to fetching peers.", a.BytesServed)
	}

	if e := m.Explore; e != nil {
		promCounter(w, "undefc_explore_searches_total", "Evaluation-order searches completed.", e.Searches)
		promCounter(w, "undefc_explore_orders_total", "Evaluation orders executed across all searches.", e.OrdersExplored)
		promCounter(w, "undefc_explore_pruned_total", "Orders pruned as commuting (partial-order reduction).", e.OrdersPruned)
		promCounter(w, "undefc_explore_deduped_total", "Runs cut short at an already-explored machine state.", e.StatesDeduped)
	}

	for _, stage := range sortedKeys(m.Latency) {
		promHistogram(w, "undefc_latency_seconds", stage, m.Latency[stage])
	}

	if c := m.Coverage; c != nil {
		// The ledger rows are already code-sorted; render only behaviors
		// whose checks have been evaluated at least once, so an idle server
		// exposes no 221-series wall and consecutive scrapes stay stable.
		fmt.Fprintf(w, "# HELP undefc_ub_check_evaluated_total UB check evaluations, by behavior code.\n# TYPE undefc_ub_check_evaluated_total counter\n")
		for _, row := range c.Behaviors {
			if row.Evaluated != 0 {
				fmt.Fprintf(w, "undefc_ub_check_evaluated_total{code=%q,section=%q} %d\n", row.Key, row.Section, row.Evaluated)
			}
		}
		fmt.Fprintf(w, "# HELP undefc_ub_check_fired_total UB checks that fired (behavior detected), by behavior code.\n# TYPE undefc_ub_check_fired_total counter\n")
		for _, row := range c.Behaviors {
			if row.Fired != 0 {
				fmt.Fprintf(w, "undefc_ub_check_fired_total{code=%q,section=%q} %d\n", row.Key, row.Section, row.Fired)
			}
		}
		promGauge(w, "undefc_ub_check_registered_behaviors", "Behaviors with at least one registered check site.", float64(c.Registered))
		promGauge(w, "undefc_ub_check_dead_behaviors", "Registered behaviors whose checks have never fired here.", float64(c.Dead))
	}

	drain := 0.0
	if m.Draining {
		drain = 1
	}
	promGauge(w, "undefc_draining", "1 while the server is draining.", drain)
}

func promGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n", name, help, name, name, promFloat(v))
}

func promCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// promHistogram renders one latency stage as a conventional Prometheus
// histogram: cumulative buckets in seconds, then sum and count. The
// underlying obs.Histogram buckets are per-bucket counts with log-spaced
// upper bounds; Prometheus wants running totals and a trailing +Inf.
func promHistogram(w io.Writer, name, stage string, s *obs.HistogramSnapshot) {
	fmt.Fprintf(w, "# HELP %s Server-side latency by stage.\n# TYPE %s histogram\n", name, name)
	var cum int64
	for i, n := range s.Buckets {
		cum += n
		if i == len(s.Buckets)-1 {
			fmt.Fprintf(w, "%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, stage, cum)
			break
		}
		// Render only occupied edges plus the final bucket of each run to
		// keep the output readable; Prometheus interpolates cumulatively,
		// so skipping empty leading buckets loses nothing.
		if n == 0 && cum == 0 {
			continue
		}
		le := float64(obs.HistogramBound(i)) / 1e9
		fmt.Fprintf(w, "%s_bucket{stage=%q,le=%q} %d\n", name, stage, promFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_sum{stage=%q} %s\n", name, stage, promFloat(float64(s.SumNS)/1e9))
	fmt.Fprintf(w, "%s_count{stage=%q} %d\n", name, stage, s.Count)
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
