package routing_test

import (
	"reflect"
	"sync"
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// TestRebuildAllocsPerDistinctSet pins container sharing on the 4096-leaf
// XGFT: its 12,808 cover sets take few distinct values (the full set, the
// 4,096 leaf singletons and 64 level-2 subtree intervals), and a rebuild
// allocates per distinct value, not per set.
func TestRebuildAllocsPerDistinctSet(t *testing.T) {
	c, err := topology.NewXGFT([]int{4, 64, 64}, []int{1, 4, 2}, 72)
	if err != nil {
		t.Fatal(err)
	}
	u := routing.New(c)
	n1 := c.LevelSize(1)
	if allocs := testing.AllocsPerRun(2, u.Rebuild); allocs > float64(n1)/8 {
		t.Errorf("Rebuild allocated %.0f objects on %d leaves, want at most %d", allocs, n1, n1/8)
	}
}

// TestConcurrentReadersAgree reads one routing state from several
// goroutines, as flow's resolve workers and rfcd's handlers do. On the XGFT
// most cover slots share containers. Every goroutine must draw the paths a
// serial reader draws; under -race the test also checks that reads never
// write a shared container.
func TestConcurrentReadersAgree(t *testing.T) {
	c, err := topology.NewXGFT([]int{2, 8, 16}, []int{1, 4, 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	u := routing.New(c)
	n1 := c.LevelSize(1)
	paths := func() [][]int32 {
		var out [][]int32
		r := rng.New(5)
		for src := 0; src < n1; src += 3 {
			out = append(out, u.Path(src, (src*7+1)%n1, r))
		}
		return out
	}
	want := paths()
	const readers = 4
	got := make([][][]int32, readers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = paths()
		}()
	}
	wg.Wait()
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("reader %d drew different paths than a serial reader", g)
		}
	}
}
