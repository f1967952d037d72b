package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

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

// Registry is a tiny atomic-counter metrics registry: named monotonic
// int64 counters, rendered in sorted order as "name value" lines (a
// Prometheus-compatible subset). All methods are safe for concurrent use;
// counter increments after the first Counter call for a name are lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*atomic.Int64 // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{counters: map[string]*atomic.Int64{}}
}

// Counter returns the counter registered under name, creating it at zero on
// first use. The returned pointer may be retained and incremented directly.
func (g *Registry) Counter(name string) *atomic.Int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.counters[name]
	if c == nil {
		c = &atomic.Int64{}
		g.counters[name] = c
	}
	return c
}

// Add increments the named counter by d.
func (g *Registry) Add(name string, d int64) { g.Counter(name).Add(d) }

// Value returns the current value of the named counter (0 if never used).
func (g *Registry) Value(name string) int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.counters[name]; c != nil {
		return c.Load()
	}
	return 0
}

// WriteTo renders every counter as "name value\n" in lexicographic name
// order, the /metrics response body.
func (g *Registry) WriteTo(w io.Writer) (int64, error) {
	g.mu.Lock()
	names := make([]string, 0, len(g.counters))
	vals := make(map[string]int64, len(g.counters))
	for name, c := range g.counters {
		names = append(names, name)
		vals[name] = c.Load()
	}
	g.mu.Unlock()
	sort.Strings(names)
	var total int64
	for _, name := range names {
		n, err := fmt.Fprintf(w, "%s %d\n", name, vals[name])
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// requestMetric renders the per-endpoint request counter name.
func requestMetric(endpoint string) string {
	return fmt.Sprintf("rfcd_requests_total{endpoint=%q}", endpoint)
}
