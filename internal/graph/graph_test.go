package graph

import (
	"testing"

	"rfclos/internal/rng"
)

// pathGraph returns the path 0-1-...-(n-1).
func pathGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// cycleGraph returns the cycle on n vertices.
func cycleGraph(n int) *Graph {
	g := pathGraph(n)
	g.AddEdge(n-1, 0)
	return g
}

// completeGraph returns K_n.
func completeGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

func TestAddHasRemoveEdge(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(0, 2) {
		t.Error("unexpected edge 0-2")
	}
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if !g.RemoveEdge(1, 0) {
		t.Error("RemoveEdge failed on existing edge")
	}
	if g.HasEdge(0, 1) || g.M() != 1 {
		t.Error("edge not removed")
	}
	if g.RemoveEdge(0, 3) {
		t.Error("RemoveEdge succeeded on missing edge")
	}
}

func TestEdgesCanonical(t *testing.T) {
	g := New(3)
	g.AddEdge(2, 0)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1)
	es := g.Edges()
	want := []Edge{{0, 1}, {0, 2}, {1, 2}}
	if len(es) != len(want) {
		t.Fatalf("got %d edges, want %d", len(es), len(want))
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := cycleGraph(5)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("mutating clone affected original")
	}
	if c.M() != g.M()-1 {
		t.Error("clone edge count wrong after removal")
	}
}

// TestIsRegularIsSimple checks the isRegular and isSimple oracles of the
// random-graph tests.
func TestIsRegularIsSimple(t *testing.T) {
	if !isRegular(cycleGraph(6), 2) {
		t.Error("cycle should be 2-regular")
	}
	if isRegular(pathGraph(4), 2) {
		t.Error("path should not be 2-regular")
	}
	g := New(2)
	g.AddEdge(0, 1)
	g.AddEdge(0, 1)
	if isSimple(g) {
		t.Error("multi-edge graph reported simple")
	}
	if !isSimple(completeGraph(5)) {
		t.Error("K5 reported non-simple")
	}
}

func TestBFSDistances(t *testing.T) {
	g := pathGraph(5)
	dist := g.BFS(0, nil)
	for i := 0; i < 5; i++ {
		if dist[i] != int32(i) {
			t.Errorf("dist[%d] = %d, want %d", i, dist[i], i)
		}
	}
	// Disconnected vertex.
	g2 := New(3)
	g2.AddEdge(0, 1)
	d2 := g2.BFS(0, nil)
	if d2[2] != -1 {
		t.Errorf("unreachable vertex distance = %d, want -1", d2[2])
	}
}

func TestDiameter(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{pathGraph(5), 4},
		{cycleGraph(6), 3},
		{cycleGraph(7), 3},
		{completeGraph(8), 1},
	}
	for i, c := range cases {
		if d := c.g.Diameter(); d != c.want {
			t.Errorf("case %d: diameter = %d, want %d", i, d, c.want)
		}
	}
	g := New(4)
	g.AddEdge(0, 1)
	if d := g.Diameter(); d != -1 {
		t.Errorf("disconnected diameter = %d, want -1", d)
	}
}

func TestDiameterSampledMatchesExact(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 5; trial++ {
		g, err := RandomRegular(60, 4, r)
		if err != nil {
			t.Fatal(err)
		}
		exact := g.Diameter()
		sampled := g.DiameterSampled(10, r)
		if sampled > exact {
			t.Errorf("sampled diameter %d exceeds exact %d", sampled, exact)
		}
		if exact-sampled > 1 {
			t.Errorf("sampled diameter %d too far below exact %d", sampled, exact)
		}
	}
}

func TestAverageDistance(t *testing.T) {
	// Path 0-1-2: distances 1,2,1 → mean 4/3.
	g := pathGraph(3)
	r := rng.New(2)
	got := g.AverageDistance(3, r)
	if want := 4.0 / 3.0; got < want-1e-9 || got > want+1e-9 {
		t.Errorf("average distance = %v, want %v", got, want)
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	if g2.AverageDistance(3, r) != -1 {
		t.Error("expected -1 for disconnected graph")
	}
}

func TestComponents(t *testing.T) {
	g := New(6)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	// BFS from each vertex reaches exactly its component {0,1,2}, {3,4}
	// or {5}.
	comp := []int{0, 0, 0, 1, 1, 2}
	for s := range comp {
		dist := g.BFS(s, nil)
		for v, d := range dist {
			if (d >= 0) != (comp[v] == comp[s]) {
				t.Errorf("BFS from %d: vertex %d at distance %d", s, v, d)
			}
		}
	}
	if !cycleGraph(4).IsConnected() {
		t.Error("cycle should be connected")
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}
