package service

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rfclos/internal/obs"
)

// cacheLen returns the number of cached (ready or in-flight) entries.
func cacheLen(c *Cache) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// cacheBytes returns the estimated resident bytes of ready cached builds.
func cacheBytes(c *Cache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// counterValue reads the named counter from reg's /metrics rendering (0 if
// never used).
func counterValue(reg *obs.Registry, name string) int64 {
	var b strings.Builder
	reg.WriteTo(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				panic(err)
			}
			return n
		}
	}
	return 0
}

// stubSpec returns a valid tiny spec whose canonical string varies with i.
func stubSpec(i int) Spec {
	return Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: uint64(i + 1)}
}

// fakeBuild returns a build function whose topologies all share one
// immutable Clos, so every entry costs the same and nothing but the cache
// itself is exercised, together with that per-entry cost.
func fakeBuild(t *testing.T) (func(Spec) (*Topology, error), int64) {
	t.Helper()
	base, err := Build(mustNormalize(t, stubSpec(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	build := func(sp Spec) (*Topology, error) {
		return &Topology{Key: sp.Key(), Spec: sp, Clos: base.Clos}, nil
	}
	return build, (&Topology{Clos: base.Clos}).MemBytes()
}

// TestCacheSingleflight forces many goroutines through Get for the same
// key while the build is deliberately slow (gated on a channel), and
// asserts exactly one build ran.
func TestCacheSingleflight(t *testing.T) {
	gate := make(chan struct{})
	var builds atomic.Int64
	build := func(sp Spec) (*Topology, error) {
		builds.Add(1)
		<-gate
		return Build(sp, nil)
	}
	c := NewCache(0, build, nil)
	const waiters = 32
	var wg sync.WaitGroup
	results := make([]*Topology, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			topo, _, err := c.Get(stubSpec(0))
			if err != nil {
				t.Error(err)
			}
			results[i] = topo
		}(i)
	}
	// Let every request join the flight, then release the build.
	for cacheLen(c) == 0 {
	}
	close(gate)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds ran, want 1", n)
	}
	for i := 1; i < waiters; i++ {
		if results[i] != results[0] {
			t.Fatal("waiters received different topology instances")
		}
	}
}

func mustNormalize(t *testing.T, sp Spec) Spec {
	t.Helper()
	norm, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return norm
}

// TestCacheLRUEviction fills the cache past a two-entry byte budget and
// checks the least recently used ready entry is evicted while recently
// used ones survive.
func TestCacheLRUEviction(t *testing.T) {
	build, cost := fakeBuild(t)
	reg := obs.NewRegistry()
	c := NewCache(2*cost+cost/2, build, reg)
	keys := make([]string, 3)
	for i := 0; i < 2; i++ {
		topo, cached, err := c.Get(stubSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("first Get of spec %d reported cached", i)
		}
		keys[i] = topo.Key
	}
	// Touch spec 0 so spec 1 becomes LRU, then insert spec 2.
	if _, cached, err := c.Get(stubSpec(0)); err != nil || !cached {
		t.Fatalf("Get(spec0) cached=%v err=%v, want cache hit", cached, err)
	}
	topo, _, err := c.Get(stubSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	keys[2] = topo.Key
	if cacheLen(c) != 2 {
		t.Fatalf("cache holds %d entries, want 2", cacheLen(c))
	}
	if _, ok := c.Lookup(keys[1]); ok {
		t.Error("LRU entry (spec 1) survived eviction")
	}
	for _, k := range []string{keys[0], keys[2]} {
		if _, ok := c.Lookup(k); !ok {
			t.Errorf("recently used key %s was evicted", k)
		}
	}
	if n := counterValue(reg, metricCacheEvictions); n != 1 {
		t.Errorf("evictions counter = %d, want 1", n)
	}
}

// TestCacheEntryCap checks the maxEntries cap on its own: with no byte
// budget, one build past the cap evicts exactly the least recently used
// entry.
func TestCacheEntryCap(t *testing.T) {
	build, _ := fakeBuild(t)
	reg := obs.NewRegistry()
	c := NewCache(-1, build, reg)
	keys := make([]string, maxEntries+1)
	for i := range keys {
		topo, _, err := c.Get(stubSpec(i))
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = topo.Key
	}
	if n := cacheLen(c); n != maxEntries {
		t.Fatalf("cache holds %d entries after %d builds, want %d", n, len(keys), maxEntries)
	}
	if _, ok := c.Lookup(keys[0]); ok {
		t.Error("least recently used entry survived eviction")
	}
	for _, k := range keys[1:] {
		if _, ok := c.Lookup(k); !ok {
			t.Errorf("key %s was evicted, want resident", k)
		}
	}
	if n := counterValue(reg, metricCacheEvictions); n != 1 {
		t.Errorf("evictions counter = %d, want 1", n)
	}
}

// TestCacheBuildErrorsNotCached checks a failing build is reported to every
// request that joined it but not retained, so the next request retries.
func TestCacheBuildErrorsNotCached(t *testing.T) {
	fail := errors.New("boom")
	var builds atomic.Int64
	build := func(sp Spec) (*Topology, error) {
		builds.Add(1)
		return nil, fail
	}
	c := NewCache(0, build, nil)
	for i := 0; i < 2; i++ {
		if _, _, err := c.Get(stubSpec(0)); !errors.Is(err, fail) {
			t.Fatalf("Get %d error = %v, want %v", i, err, fail)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds ran, want 2 (errors must not be cached)", n)
	}
	if cacheLen(c) != 0 {
		t.Fatalf("cache holds %d entries after failures, want 0", cacheLen(c))
	}
}

// TestCacheBuildPanicSettles checks a panicking build still settles its
// entry: a follower waiting on the flight gets an error instead of hanging,
// the panic reaches the builder's caller, and the next request rebuilds.
func TestCacheBuildPanicSettles(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var builds atomic.Int64
	build := func(sp Spec) (*Topology, error) {
		if builds.Add(1) == 1 {
			close(started)
			<-release
			panic("boom")
		}
		return Build(sp, nil)
	}
	c := NewCache(0, build, nil)
	leader := make(chan any)
	go func() {
		defer func() { leader <- recover() }()
		c.Get(stubSpec(0))
	}()
	<-started
	follower := make(chan error)
	go func() {
		_, _, err := c.Get(stubSpec(0))
		follower <- err
	}()
	// The follower joins the flight: its hit is counted before it waits.
	for counterValue(c.reg, metricCacheHits) == 0 {
		runtime.Gosched()
	}
	close(release)
	if p := <-leader; p != "boom" {
		t.Fatalf("leader recovered %v, want the build's panic", p)
	}
	if err := <-follower; !errors.Is(err, errBuildPanicked) {
		t.Fatalf("follower error = %v, want %v", err, errBuildPanicked)
	}
	if cacheLen(c) != 0 {
		t.Fatalf("cache holds %d entries after the panic, want 0", cacheLen(c))
	}
	if _, cached, err := c.Get(stubSpec(0)); err != nil || cached {
		t.Fatalf("rebuild after panic: cached=%v err=%v", cached, err)
	}
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds started, want 2", n)
	}
}

// TestCacheRejectsInvalidSpec checks Normalize errors surface without
// touching the cache.
func TestCacheRejectsInvalidSpec(t *testing.T) {
	c := NewCache(0, nil, nil)
	bad := []Spec{
		{},
		{Kind: "nope"},
		{Kind: "rfc", Radix: 7, Levels: 3, Leaves: 16},
		{Kind: "cft", Radix: 8, Levels: 1},
		{Kind: "rrn", N: 1, Degree: 3},
	}
	for _, sp := range bad {
		if _, _, err := c.Get(sp); err == nil {
			t.Errorf("spec %+v accepted, want error", sp)
		}
	}
	if cacheLen(c) != 0 {
		t.Fatalf("invalid specs left %d cache entries", cacheLen(c))
	}
}

// TestSpecCanonicalization pins the content-address scheme: seed is
// canonicalised away for deterministic kinds, defaults are filled, and
// distinct params give distinct keys.
func TestSpecCanonicalization(t *testing.T) {
	a := mustNormalize(t, Spec{Kind: "cft", Radix: 8, Levels: 3, Seed: 1})
	b := mustNormalize(t, Spec{Kind: "cft", Radix: 8, Levels: 3, Seed: 99})
	if a.Key() != b.Key() {
		t.Error("cft keys differ across seeds; deterministic kinds must canonicalise seed")
	}
	r1 := mustNormalize(t, Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1})
	r2 := mustNormalize(t, Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 2})
	if r1.Key() == r2.Key() {
		t.Error("rfc keys identical across seeds; random kinds must key on seed")
	}
	// Leaves defaulting: 0 means MaxLeaves, and the canonical form shows it.
	d := mustNormalize(t, Spec{Kind: "rfc", Radix: 8, Levels: 3, Seed: 1})
	if d.Leaves == 0 {
		t.Error("Normalize left rfc leaves at 0")
	}
	if got := fmt.Sprintf("rfc(radix=8,levels=3,leaves=%d,seed=1)", d.Leaves); d.Canonical() != got {
		t.Errorf("canonical = %q, want %q", d.Canonical(), got)
	}
	if len(d.Key()) != 16 {
		t.Errorf("key %q is not 16 hex chars", d.Key())
	}
}

// TestCacheByteBudget checks memory-aware eviction: entries are evicted
// from the LRU tail until the MemBytes sum fits the byte budget, and the
// most recently used entry always survives, even when it alone exceeds the
// budget.
func TestCacheByteBudget(t *testing.T) {
	one, err := Build(mustNormalize(t, stubSpec(0)), nil)
	if err != nil {
		t.Fatal(err)
	}
	cost := one.MemBytes()
	if cost <= 0 {
		t.Fatalf("MemBytes() = %d, want > 0", cost)
	}

	budget := 2*cost + cost/2 // room for two builds, not three
	c := NewCache(budget, nil, nil)
	for i := 0; i < 5; i++ {
		if _, _, err := c.Get(stubSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := cacheLen(c); n != 2 {
		t.Fatalf("Len() = %d after 5 builds under a 2-build byte budget, want 2", n)
	}
	if b := cacheBytes(c); b > budget {
		t.Fatalf("Bytes() = %d > budget %d", b, budget)
	}
	if got := counterValue(c.reg, metricCacheBytes); got != cacheBytes(c) {
		t.Fatalf("%s gauge = %d, cache reports %d", metricCacheBytes, got, cacheBytes(c))
	}

	// A build over the whole budget still lands (front entry is never
	// evicted) and is replaced by the next build.
	tiny := NewCache(1, nil, nil)
	if _, _, err := tiny.Get(stubSpec(0)); err != nil {
		t.Fatal(err)
	}
	if n := cacheLen(tiny); n != 1 {
		t.Fatalf("Len() = %d, want 1 (over-budget MRU entry must survive)", n)
	}
	if _, _, err := tiny.Get(stubSpec(1)); err != nil {
		t.Fatal(err)
	}
	if n := cacheLen(tiny); n != 1 {
		t.Fatalf("Len() = %d after second build, want 1 (old entry evicted)", n)
	}
	if _, cached, err := tiny.Get(stubSpec(1)); err != nil || !cached {
		t.Fatalf("MRU entry not served from cache (cached=%v, err=%v)", cached, err)
	}
}

// TestCacheConcurrentChurn is the race detector's view of the Cache and
// Registry locking: concurrent Gets over more keys than the byte budget
// holds keep entries being inserted and evicted while other goroutines
// read through every public accessor. A dropped lock on any of these paths is a data
// race under go test -race; the final checks catch lost byte accounting.
// It stays quick under -short, which is how the race job runs it.
func TestCacheConcurrentChurn(t *testing.T) {
	build, cost := fakeBuild(t)
	reg := obs.NewRegistry()
	const capacity, nkeys, workers, rounds = 3, 12, 4, 200
	c := NewCache(capacity*cost+cost/2, build, reg)
	keys := make([]string, nkeys)
	for i := range keys {
		keys[i] = mustNormalize(t, stubSpec(i)).Key()
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, _, err := c.Get(stubSpec((i*7 + w) % nkeys)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Lookup(keys[(i+w)%nkeys])
				cacheLen(c)
				cacheBytes(c)
				counterValue(reg, metricCacheBytes)
				reg.Add(fmt.Sprintf("test_reader_%d_%d", w, i), 1)
				reg.WriteTo(io.Discard)
			}
		}(w)
	}
	wg.Wait()

	if n := cacheLen(c); n != capacity {
		t.Errorf("Len() = %d, want %d", n, capacity)
	}
	if got, want := cacheBytes(c), capacity*cost; got != want {
		t.Errorf("Bytes() = %d, want %d for %d resident entries", got, want, capacity)
	}
	if got := counterValue(reg, metricCacheBytes); got != cacheBytes(c) {
		t.Errorf("%s gauge = %d, cache reports %d", metricCacheBytes, got, cacheBytes(c))
	}
}
