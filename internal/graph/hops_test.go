package graph

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"rfclos/internal/rng"
)

// refHopTable is the reference model of HopTable: one queue BFS per source,
// failing on the lowest source with an unreachable or too-distant vertex.
func refHopTable(g *Graph) ([][]uint8, int, *HopError) {
	n := g.N()
	rows := make([][]uint8, n)
	diam := 0
	for s := 0; s < n; s++ {
		rows[s] = make([]uint8, n)
		for v, d := range g.BFS(s, nil) {
			if d < 0 || d > MaxHops {
				return nil, 0, &HopError{From: s, To: v, Dist: int(d)}
			}
			rows[s][v] = uint8(d)
			diam = max(diam, int(d))
		}
	}
	return rows, diam, nil
}

// checkHopTable compares HopTable at one and two workers with the
// reference, table, diameter and error alike.
func checkHopTable(t *testing.T, name string, g *Graph) {
	t.Helper()
	want, wantDiam, wantErr := refHopTable(g)
	for _, workers := range []int{1, 2} {
		rows, diam, err := g.HopTable(workers)
		if wantErr != nil {
			var he *HopError
			if !errors.As(err, &he) || *he != *wantErr {
				t.Errorf("%s workers=%d: error %v, want %v", name, workers, err, wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s workers=%d: %v", name, workers, err)
		}
		if diam != wantDiam {
			t.Errorf("%s workers=%d: diameter %d, want %d", name, workers, diam, wantDiam)
		}
		if !slices.EqualFunc(rows, want, slices.Equal) {
			t.Errorf("%s workers=%d: table differs from per-source BFS", name, workers)
		}
	}
}

func TestHopTableRandomRegular(t *testing.T) {
	r := rng.New(16)
	for _, tc := range []struct{ n, d int }{
		{1, 0}, {2, 1}, {63, 4}, {64, 5}, {65, 4}, {130, 6}, {2048, 12},
	} {
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatal(err)
		}
		checkHopTable(t, fmt.Sprintf("rrg(%d,%d)", tc.n, tc.d), g)
	}
}

func TestHopTableRemovedLinks(t *testing.T) {
	r := rng.New(3)
	g, err := RandomRegular(130, 6, r)
	if err != nil {
		t.Fatal(err)
	}
	for removed := 0; removed < 60; {
		u := r.Intn(g.N())
		if adj := g.Neighbors(u); len(adj) > 0 && g.RemoveEdge(u, int(adj[r.Intn(len(adj))])) {
			removed++
		}
	}
	if !g.IsConnected() {
		t.Fatal("faulted graph disconnected; pick another seed")
	}
	checkHopTable(t, "rrg(130,6) minus 60 links", g)
}

func TestHopTableDisconnected(t *testing.T) {
	// Two random regular components with interleaved labels, so the lowest
	// unreachable vertex is not the first of a block.
	r := rng.New(5)
	a, _ := RandomRegular(70, 4, r)
	b, _ := RandomRegular(80, 4, r)
	perm := r.Perm(150)
	g := New(150)
	for _, e := range a.Edges() {
		g.AddEdge(perm[e.U], perm[e.V])
	}
	for _, e := range b.Edges() {
		g.AddEdge(perm[70+e.U], perm[70+e.V])
	}
	checkHopTable(t, "two components", g)

	// An isolated vertex in the third block fails every source.
	g, _ = RandomRegular(200, 4, r)
	for _, u := range slices.Clone(g.Neighbors(150)) {
		g.RemoveEdge(150, int(u))
	}
	checkHopTable(t, "isolated vertex", g)
}

func TestHopTableMaxHops(t *testing.T) {
	for _, n := range []int{MaxHops + 1, MaxHops + 2, 300} {
		g := pathGraph(n)
		checkHopTable(t, fmt.Sprintf("path(%d)", n), g)
		_, diam, err := g.HopTable(2)
		switch {
		case n == MaxHops+1 && (err != nil || diam != MaxHops):
			t.Errorf("path(%d): diameter %d, error %v; want %d, nil", n, diam, err, MaxHops)
		case n > MaxHops+1 && err == nil:
			t.Errorf("path(%d): distance %d accepted", n, n-1)
		}
	}
	// A relabelled path of 400: positions 144..255 are within MaxHops of
	// both ends and take labels 0..111, so the lowest failing source, 112,
	// sits past the first block, and its farthest vertices are more than
	// MaxHops+1 away.
	const n = 400
	r := rng.New(8)
	label := make([]int, n)
	inner, outer := r.Perm(112), r.Perm(n-112)
	for pos := range label {
		if pos >= 144 && pos < 256 {
			label[pos] = inner[pos-144]
		} else {
			label[pos] = 112 + outer[0]
			outer = outer[1:]
		}
	}
	g := New(n)
	for pos := 0; pos+1 < n; pos++ {
		g.AddEdge(label[pos], label[pos+1])
	}
	if _, _, want := refHopTable(g); want == nil || want.From != 112 || want.Dist <= MaxHops+1 {
		t.Fatalf("relabelled path: reference error %v, want a source-112 failure beyond %d", want, MaxHops+1)
	}
	checkHopTable(t, "relabelled path(400)", g)
}

// hopSink keeps the benchmarked table live.
var hopSink [][]uint8

// BenchmarkHopTable times one-worker hop tables of RRN-sized random regular
// graphs: flowscale's small (2,048, degree 12) and paper (12,960, degree
// 27) instances.
func BenchmarkHopTable(b *testing.B) {
	for _, tc := range []struct{ n, d int }{{2048, 12}, {12960, 27}} {
		b.Run(fmt.Sprintf("n=%d,d=%d", tc.n, tc.d), func(b *testing.B) {
			g, err := RandomRegular(tc.n, tc.d, rng.New(7))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rows, _, err := g.HopTable(1)
				if err != nil {
					b.Fatal(err)
				}
				hopSink = rows
			}
		})
	}
}
