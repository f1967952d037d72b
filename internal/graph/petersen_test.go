package graph

import (
	"testing"

	"rfclos/internal/rng"
)

// petersen builds the Petersen graph: outer 5-cycle 0-4, inner pentagram
// 5-9, spokes i—i+5. A classic stress case with known invariants.
func petersen() *Graph {
	g := New(10)
	for i := 0; i < 5; i++ {
		g.AddEdge(i, (i+1)%5)       // outer cycle
		g.AddEdge(5+i, 5+((i+2)%5)) // inner pentagram
		g.AddEdge(i, i+5)           // spokes
	}
	return g
}

func TestPetersenInvariants(t *testing.T) {
	g := petersen()
	if !isRegular(g, 3) || !isSimple(g) {
		t.Fatal("Petersen graph must be 3-regular simple")
	}
	if g.M() != 15 {
		t.Fatalf("M = %d, want 15", g.M())
	}
	if d := g.Diameter(); d != 2 {
		t.Errorf("diameter = %d, want 2", d)
	}
	// Edge connectivity equals degree (Petersen is 3-edge-connected).
	if c := g.EdgeConnectivity(0, 7); c != 3 {
		t.Errorf("edge connectivity = %d, want 3", c)
	}
	// Average distance: each vertex has 3 at distance 1 and 6 at distance
	// 2 → mean = (3 + 12) / 9 = 5/3.
	r := rng.New(1)
	if avg := g.AverageDistance(10, r); avg < 5.0/3-1e-9 || avg > 5.0/3+1e-9 {
		t.Errorf("average distance = %v, want 5/3", avg)
	}
	// Girth 5: no path of length 2 between adjacent vertices' other
	// neighbours... simpler: between any two adjacent vertices there is
	// exactly one shortest path (no 4-cycles). Check via k-shortest.
	paths := g.KShortestPaths(0, 1, 3)
	if len(paths[0]) != 2 {
		t.Errorf("adjacent vertices shortest path has %d hops", len(paths[0])-1)
	}
	if len(paths) > 1 && len(paths[1]) < 5 {
		t.Errorf("second path length %d implies a cycle shorter than 5", len(paths[1])-1+1)
	}
	// Bisection of Petersen is known to be 5? It is at least min degree
	// considerations; just assert the heuristic returns something sane.
	if b := g.BisectionUpperBound(12, r); b < 3 || b > 9 {
		t.Errorf("bisection heuristic = %d out of plausible range", b)
	}
}
