package service

import (
	"container/list"
	"errors"
	"sync"

	"rfclos/internal/obs"
)

// Cache is the content-addressed topology cache: builds are keyed by the
// canonical (kind, params, seed) content address, retained under an LRU
// policy, and deduplicated singleflight-style — N concurrent requests for
// the same key trigger exactly one build, with the N-1 followers blocking
// on the winner's result instead of building again.
//
// The implementation is a mutex-guarded map + intrusive LRU list; the
// mutex is never held across a build. An in-flight build is represented by
// an entry whose ready channel is still open; followers wait on the channel
// outside the lock. Failed builds are evicted immediately so later requests
// retry instead of caching the error forever (the error is still delivered
// to every request that joined the failing flight).
type Cache struct {
	build func(Spec) (*Topology, error)
	reg   *obs.Registry

	mu       sync.Mutex
	cap      int
	maxBytes int64                    // byte budget over MemBytes costs; <= 0 = unlimited
	bytes    int64                    // sum of ready entries' costs; guarded by mu
	ll       *list.List               // MRU first, *cacheEntry values; guarded by mu
	items    map[string]*list.Element // guarded by mu
	builds   map[string]int64         // per-key build starts; guarded by mu
}

type cacheEntry struct {
	key       string
	ready     chan struct{} // closed when topo/err are final
	done      bool          // guarded by Cache.mu; true once ready is closed
	cost      int64         // MemBytes at insertion; guarded by Cache.mu
	topoBytes int64         // adjacency-store share of cost; guarded by Cache.mu
	topo      *Topology
	err       error
}

// storeBytes is the adjacency-store share of a build's cost: CSR base plus
// mutation overlay for folded Clos builds, zero for RRN (whose graph is not
// level-structured). It feeds the rfcd_topology_bytes gauge.
func storeBytes(t *Topology) int64 {
	if t == nil || t.Clos == nil {
		return 0
	}
	return int64(t.Clos.StoreBytes())
}

// DefaultCacheBytes is the default cache byte budget (8 GiB): enough for a
// handful of ≥64K-leaf builds (whose routing state runs to gigabytes) while
// bounding rfcd's resident set.
const DefaultCacheBytes = 8 << 30

// NewCache returns a cache holding up to capacity ready builds totalling at
// most maxBytes of estimated topology memory (0 means DefaultCacheBytes,
// negative means unlimited), building misses with build (nil means the
// package-level Build). reg, when non-nil, receives hit/miss/eviction/build
// counters and the resident-byte gauge.
func NewCache(capacity int, maxBytes int64, build func(Spec) (*Topology, error), reg *obs.Registry) *Cache {
	if capacity <= 0 {
		capacity = 64
	}
	if maxBytes == 0 {
		maxBytes = DefaultCacheBytes
	}
	if build == nil {
		build = Build
	}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Cache{
		build:    build,
		reg:      reg,
		cap:      capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		builds:   map[string]int64{},
	}
}

// Get returns the topology for sp, normalizing it first. The second result
// reports whether the request was served from cache (including joining an
// in-flight build of the same key) rather than starting a build.
func (c *Cache) Get(sp Spec) (*Topology, bool, error) {
	norm, err := sp.Normalize()
	if err != nil {
		return nil, false, err
	}
	key := norm.Key()

	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		c.mu.Unlock()
		c.reg.Add(metricCacheHits, 1)
		<-e.ready
		return e.topo, true, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.items[key] = c.ll.PushFront(e)
	c.builds[key]++
	c.evictLocked()
	c.mu.Unlock()

	c.reg.Add(metricCacheMisses, 1)
	c.reg.Add(metricBuilds, 1)
	// A panicking build settles the entry as failed, so its followers are
	// released and a later request retries; the panic then propagates.
	var topo *Topology
	err = errBuildPanicked
	defer func() { c.settle(e, topo, err) }()
	topo, err = c.build(norm)
	return topo, false, err
}

// errBuildPanicked is the error followers of a panicked build receive.
var errBuildPanicked = errors.New("service: topology build panicked")

// settle publishes a finished build to its entry and its followers: a
// failed build leaves the cache, a ready one is charged against the byte
// budget.
func (c *Cache) settle(e *cacheEntry, topo *Topology, err error) {
	c.mu.Lock()
	e.topo, e.err = topo, err
	e.done = true
	if err != nil {
		c.reg.Add(metricBuildErrors, 1)
		// Drop the failed entry (unless a newer entry took the key, which
		// cannot happen while we are in the map — we only insert under lock
		// and the key still points at e).
		if el, ok := c.items[e.key]; ok && el.Value.(*cacheEntry) == e {
			c.ll.Remove(el)
			delete(c.items, e.key)
		}
	} else {
		// Charge the finished build against the byte budget (the cost is
		// measured once, at insertion) and evict down to it.
		e.cost = topo.MemBytes()
		e.topoBytes = storeBytes(topo)
		c.bytes += e.cost
		c.reg.Add(metricCacheBytes, e.cost)
		c.reg.Add(metricTopologyBytes, e.topoBytes)
		c.evictLocked()
	}
	c.mu.Unlock()
	close(e.ready)
}

// Lookup returns the cached topology named by key (the content address),
// waiting for an in-flight build of that key to finish. ok is false when
// the key is unknown (never built, or evicted).
func (c *Cache) Lookup(key string) (*Topology, bool) {
	c.mu.Lock()
	el, ok := c.items[key]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	c.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	c.mu.Unlock()
	<-e.ready
	if e.err != nil {
		return nil, false
	}
	return e.topo, true
}

// evictLocked trims the LRU tail until both the entry-count capacity and
// the byte budget are respected. It skips entries whose builds are still in
// flight (their requesters hold the entry pointer; the map must keep
// pointing at it so concurrent requests dedupe onto it) and never evicts
// the front (most recently used) entry — a build larger than the whole
// budget still serves the request that produced it and is evicted when the
// next build lands. Callers must hold c.mu.
func (c *Cache) evictLocked() {
	for el := c.ll.Back(); el != nil && el != c.ll.Front(); {
		if len(c.items) <= c.cap && (c.maxBytes < 0 || c.bytes <= c.maxBytes) {
			return
		}
		prev := el.Prev()
		e := el.Value.(*cacheEntry)
		if e.done {
			c.ll.Remove(el)
			delete(c.items, e.key)
			c.bytes -= e.cost
			c.reg.Add(metricCacheBytes, -e.cost)
			c.reg.Add(metricTopologyBytes, -e.topoBytes)
			c.reg.Add(metricCacheEvictions, 1)
		}
		el = prev
	}
}

// BuildsFor returns how many builds have started for key since the cache
// was created — the singleflight assertion hook: under any concurrency it
// must be exactly 1 per key unless the entry was evicted or failed.
func (c *Cache) BuildsFor(key string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.builds[key]
}
