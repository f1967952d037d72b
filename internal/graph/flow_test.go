package graph

import (
	"testing"

	"rfclos/internal/rng"
)

func TestEdgeConnectivitySimple(t *testing.T) {
	if got := pathGraph(4).EdgeConnectivity(0, 3); got != 1 {
		t.Errorf("path connectivity = %d, want 1", got)
	}
	if got := cycleGraph(6).EdgeConnectivity(0, 3); got != 2 {
		t.Errorf("cycle connectivity = %d, want 2", got)
	}
	if got := completeGraph(5).EdgeConnectivity(0, 4); got != 4 {
		t.Errorf("K5 connectivity = %d, want 4", got)
	}
	if got := completeGraph(3).EdgeConnectivity(1, 1); got != 0 {
		t.Errorf("self connectivity = %d, want 0", got)
	}
}

func TestEdgeConnectivityDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	if got := g.EdgeConnectivity(0, 3); got != 0 {
		t.Errorf("disconnected connectivity = %d, want 0", got)
	}
}

func TestEdgeConnectivityBoundedByDegree(t *testing.T) {
	r := rng.New(31)
	g, err := RandomRegular(30, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 10; trial++ {
		s, u := r.Intn(30), r.Intn(30)
		if s == u {
			continue
		}
		c := g.EdgeConnectivity(s, u)
		if c > 4 {
			t.Errorf("connectivity %d exceeds degree 4", c)
		}
		if c < 1 {
			t.Errorf("connected graph gave connectivity %d", c)
		}
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Count() != 5 {
		t.Fatalf("initial count = %d", uf.Count())
	}
	if !uf.Union(0, 1) || !uf.Union(1, 2) {
		t.Error("unions should succeed")
	}
	if uf.Union(0, 2) {
		t.Error("redundant union should report false")
	}
	if uf.Count() != 3 {
		t.Errorf("count = %d, want 3", uf.Count())
	}
	if uf.Find(0) != uf.Find(2) || uf.Find(0) == uf.Find(3) {
		t.Error("Find gave wrong representatives")
	}
}

func TestBisectionCycle(t *testing.T) {
	// Even cycle: bisection width is exactly 2.
	r := rng.New(41)
	if got := cycleGraph(16).BisectionUpperBound(8, r); got != 2 {
		t.Errorf("C16 bisection = %d, want 2", got)
	}
}

func TestBisectionCompleteBipartiteLike(t *testing.T) {
	// Two K4 blobs joined by one edge: bisection width 1.
	g := New(8)
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdge(i, j)
			g.AddEdge(i+4, j+4)
		}
	}
	g.AddEdge(0, 4)
	r := rng.New(43)
	if got := g.BisectionUpperBound(8, r); got != 1 {
		t.Errorf("dumbbell bisection = %d, want 1", got)
	}
}

func TestBisectionRandomRegularAboveBollobas(t *testing.T) {
	// Bollobás: bisection >= N/2 (d/2 - sqrt(d ln 2)). The heuristic is an
	// upper bound, so it must sit above this for random regular graphs.
	r := rng.New(47)
	const n, d = 64, 6
	g, err := RandomRegular(n, d, r)
	if err != nil {
		t.Fatal(err)
	}
	got := float64(g.BisectionUpperBound(6, r))
	lower := float64(n) / 2 * (float64(d)/2 - 2.04) // sqrt(6 ln 2) ≈ 2.039
	if got < lower {
		t.Errorf("heuristic bisection %v below Bollobás lower bound %v", got, lower)
	}
}
