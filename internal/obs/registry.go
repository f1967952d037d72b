// Package obs is the telemetry package: the counter registry rfcd serves
// at /metrics and the progress wrapper rfcpaper prints to stderr. It is
// the one package outside cmd/ that reads the wall clock, and its API
// hands no time value back to the caller: Registry.Time adds elapsed
// nanoseconds to a counter, and Progress writes its stamp into the line it
// passes to the sink. Every other library package is on rfclint's
// deterministic list (internal/lint.DefaultConfig), so no clock reading can
// reach a report or a response body except through /metrics.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
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

// Time starts timing an operation: calling the returned stop function adds
// the elapsed wall-clock nanoseconds to the named counter. It hands no time
// value back, so a timed operation cannot leak a clock reading into its
// result. On a nil registry it is a no-op.
func (g *Registry) Time(name string) (stop func()) {
	if g == nil {
		return func() {}
	}
	start := time.Now()
	return func() { g.Add(name, time.Since(start).Nanoseconds()) }
}
