package routing_test

import (
	"reflect"
	"sync"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// TestRebuildStreamMatchesBatch pins the streamed routing construction to
// the batch one: for a structured topology (XGFT, interval fast path) and a
// random one (RFC, builder-union path), the state built level by level
// during wiring must be indistinguishable from routing.New on the finished
// graph — same byte accounting, same container mix, same MinTurn answer for
// every leaf pair.
func TestRebuildStreamMatchesBatch(t *testing.T) {
	cases := []struct {
		name    string
		streamy func(sink topology.LevelSink) *topology.Clos
	}{
		{"xgft", func(sink topology.LevelSink) *topology.Clos {
			c, err := topology.NewXGFTStream([]int{3, 4, 5}, []int{1, 2, 2}, 16, sink)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"cft", func(sink topology.LevelSink) *topology.Clos {
			c, err := topology.NewCFTStream(8, 3, sink)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"oft", func(sink topology.LevelSink) *topology.Clos {
			c, err := topology.NewOFTStream(2, 3, sink)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"rfc", func(sink topology.LevelSink) *topology.Clos {
			c, err := core.GenerateStream(core.Params{Radix: 8, Leaves: 32, Levels: 3}, rng.New(7), sink)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs := routing.NewRebuildStream()
			c := tc.streamy(rs)
			streamed := rs.Finish(c)

			// Same wiring, batch construction. The builders are
			// deterministic (the RFC case re-draws from an equal-seed rng),
			// so both routers see identical graphs.
			batch := routing.New(tc.streamy(nil))

			if got, want := streamed.CoverBytes(), batch.CoverBytes(); got != want {
				t.Fatalf("CoverBytes: streamed %d, batch %d", got, want)
			}
			if got, want := streamed.CoverRepr(), batch.CoverRepr(); got != want {
				t.Fatalf("CoverRepr: streamed %q, batch %q", got, want)
			}
			if got, want := streamed.Routable(), batch.Routable(); got != want {
				t.Fatalf("Routable: streamed %v, batch %v", got, want)
			}
			n1 := c.LevelSize(1)
			for src := 0; src < n1; src++ {
				for dst := 0; dst < n1; dst++ {
					if got, want := streamed.MinTurn(src, dst), batch.MinTurn(src, dst); got != want {
						t.Fatalf("MinTurn(%d,%d): streamed %d, batch %d", src, dst, got, want)
					}
				}
			}
		})
	}
}

// TestGenerateRoutableStreams checks the streamed GenerateRoutable path is
// byte-equivalent to generating the same attempts and routing them in
// batch: same topology, same attempt count, same routing answers.
func TestGenerateRoutableStreams(t *testing.T) {
	p := core.Params{Radix: 8, Leaves: 64, Levels: 3}
	c, ud, attempts, err := core.GenerateRoutable(p, 20, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r2 := rng.New(11)
	var want *topology.Clos
	for a := 1; a <= attempts; a++ {
		var err error
		want, err = core.Generate(p, r2)
		if err != nil {
			t.Fatal(err)
		}
	}
	gotLinks, wantLinks := c.Links(), want.Links()
	if len(gotLinks) != len(wantLinks) {
		t.Fatalf("link counts differ: %d vs %d", len(gotLinks), len(wantLinks))
	}
	for i := range wantLinks {
		if gotLinks[i] != wantLinks[i] {
			t.Fatalf("link %d: streamed %v, replay %v", i, gotLinks[i], wantLinks[i])
		}
	}
	if !ud.Routable() {
		t.Fatal("GenerateRoutable returned an unroutable router")
	}
	if got, want := ud.CoverBytes(), routing.New(want).CoverBytes(); got != want {
		t.Fatalf("CoverBytes: streamed %d, batch %d", got, want)
	}
}

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
