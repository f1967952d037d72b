package service

import "fmt"

// Metric names exposed at /metrics. Request counts are labelled per route
// as rfcd_requests_total{endpoint="..."}.
const (
	metricCacheHits      = "rfcd_cache_hits_total"
	metricCacheMisses    = "rfcd_cache_misses_total"
	metricCacheEvictions = "rfcd_cache_evictions_total"
	metricBuilds         = "rfcd_builds_total"
	metricBuildErrors    = "rfcd_build_errors_total"
	metricBuildNS        = "rfcd_build_ns_total"
	metricIndexNS        = "rfcd_index_ns_total"
	metricHTTPErrors     = "rfcd_http_errors_total"
	metricPanics         = "rfcd_panics_total"
	// metricCacheBytes is a gauge, not a monotonic counter: it tracks the
	// estimated resident bytes of ready cached builds (incremented on
	// insertion, decremented on eviction).
	metricCacheBytes = "rfcd_cache_bytes"
	// metricTopologyBytes is a gauge like metricCacheBytes, tracking only
	// the adjacency-store share of the cached builds: CSR base + mutation
	// overlay (Clos.StoreBytes). Together the two gauges explain
	// cache-budget evictions from /metrics alone — the difference is what
	// routers and indexes cost on top of the raw topologies.
	metricTopologyBytes = "rfcd_topology_bytes"
)

// requestMetric renders the per-endpoint request counter name.
func requestMetric(endpoint string) string {
	return fmt.Sprintf("rfcd_requests_total{endpoint=%q}", endpoint)
}
