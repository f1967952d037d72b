package service

import (
	"runtime"
	"testing"
)

// liveHeap returns the live heap bytes after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestMemBytesBoundsHeap checks the cache charge against the heap: the
// live bytes one Build leaves behind stay within 5% of its MemBytes, for
// every kind of build the cache holds. The cache's byte budget bounds
// memory only as far as MemBytes does. A first build of each spec runs
// untimed, so package-level tables a kind fills on first use are not
// counted. The test is not parallel: other tests' allocations would blur
// the heap delta.
func TestMemBytesBoundsHeap(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's allocator pads small objects")
	}
	for _, tc := range []struct {
		name string
		sp   Spec
	}{
		{"rfc-48", Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: 48, Seed: 1}},
		{"rfc-648", Spec{Kind: "rfc", Radix: 36, Levels: 3, Leaves: 648, Seed: 1}},
		{"cft-16-3", Spec{Kind: "cft", Radix: 16, Levels: 3}},
		{"xgft-16-4", Spec{Kind: "xgft", M: []int{8, 8, 8, 16}, W: []int{1, 8, 8, 8}, Radix: 16}},
		{"rrn-2048-12", Spec{Kind: "rrn", N: 2048, Degree: 12, Terms: 4, Seed: 1}},
	} {
		sp, err := tc.sp.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Build(sp, nil); err != nil {
			t.Fatal(err)
		}
		before := liveHeap()
		topo, err := Build(sp, nil)
		if err != nil {
			t.Fatal(err)
		}
		live := liveHeap() - before
		charge := topo.MemBytes()
		runtime.KeepAlive(topo)
		ratio := float64(live) / float64(charge)
		t.Logf("%s: %d B live, %d B charged (%.3f×)", tc.name, live, charge, ratio)
		if ratio > 1.05 {
			t.Errorf("%s: one build holds %d B of heap against a %d B charge (%.3f×, want <= 1.05×)",
				tc.name, live, charge, ratio)
		}
	}
}
