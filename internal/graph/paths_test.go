package graph

import (
	"testing"

	"rfclos/internal/rng"
)

func TestShortestPath(t *testing.T) {
	g := pathGraph(5)
	p := g.ShortestPath(0, 4)
	if len(p) != 5 {
		t.Fatalf("path length %d, want 5", len(p))
	}
	for i, v := range p {
		if v != int32(i) {
			t.Errorf("p[%d] = %d, want %d", i, v, i)
		}
	}
	if p := g.ShortestPath(2, 2); len(p) != 1 || p[0] != 2 {
		t.Errorf("trivial path = %v", p)
	}
	g2 := New(3)
	g2.AddEdge(0, 1)
	if g2.ShortestPath(0, 2) != nil {
		t.Error("expected nil path to unreachable vertex")
	}
}

func TestKShortestPathsCycle(t *testing.T) {
	// On C6, 0→3 has exactly two shortest paths of length 3 (both ways
	// around), and no other loopless paths besides those.
	g := cycleGraph(6)
	paths := g.KShortestPaths(0, 3, 5)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2: %v", len(paths), paths)
	}
	for _, p := range paths {
		if len(p) != 4 {
			t.Errorf("path %v has %d hops, want 3", p, len(p)-1)
		}
		if !isPath(g, p) {
			t.Errorf("%v is not a valid simple path", p)
		}
	}
}

func TestKShortestPathsDiamond(t *testing.T) {
	//    1
	//  / | \
	// 0  |  3 -- 4
	//  \ | /
	//    2
	g := New(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	paths := g.KShortestPaths(0, 4, 10)
	if len(paths) < 2 {
		t.Fatalf("got %d paths, want >= 2", len(paths))
	}
	// Orderings: lengths must be non-decreasing.
	for i := 1; i < len(paths); i++ {
		if len(paths[i]) < len(paths[i-1]) {
			t.Errorf("path %d shorter than path %d", i, i-1)
		}
	}
	// First two paths have 3 hops (via 1 or via 2).
	if len(paths[0]) != 4 || len(paths[1]) != 4 {
		t.Errorf("two shortest paths should have 3 hops: %v", paths[:2])
	}
	// All paths valid and distinct.
	seen := map[string]bool{}
	for _, p := range paths {
		if !isPath(g, p) {
			t.Errorf("invalid path %v", p)
		}
		key := ""
		for _, v := range p {
			key += string(rune('a' + v))
		}
		if seen[key] {
			t.Errorf("duplicate path %v", p)
		}
		seen[key] = true
		if p[0] != 0 || p[len(p)-1] != 4 {
			t.Errorf("path endpoints wrong: %v", p)
		}
	}
}

func TestKShortestOnRandomRegular(t *testing.T) {
	r := rng.New(21)
	g, err := RandomRegular(40, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	paths := g.KShortestPaths(0, 20, 8)
	if len(paths) == 0 {
		t.Fatal("no paths found in connected graph")
	}
	for i, p := range paths {
		if !isPath(g, p) {
			t.Errorf("path %d invalid: %v", i, p)
		}
		if i > 0 && len(p) < len(paths[i-1]) {
			t.Errorf("paths not sorted by length at %d", i)
		}
	}
	// First path must be a true shortest path.
	d := g.BFS(0, nil)
	if int(d[20]) != len(paths[0])-1 {
		t.Errorf("first path length %d != BFS distance %d", len(paths[0])-1, d[20])
	}
}

// isPath reports whether the vertex sequence p is a walk in g with no
// repeated vertices.
func isPath(g *Graph, p []int32) bool {
	if len(p) == 0 {
		return false
	}
	seen := map[int32]bool{p[0]: true}
	for i := 1; i < len(p); i++ {
		if seen[p[i]] || !g.HasEdge(int(p[i-1]), int(p[i])) {
			return false
		}
		seen[p[i]] = true
	}
	return true
}

// TestIsPathRejects checks the isPath oracle of the path tests.
func TestIsPathRejects(t *testing.T) {
	g := cycleGraph(4)
	if isPath(g, []int32{0, 2}) {
		t.Error("non-adjacent hop accepted")
	}
	if isPath(g, []int32{0, 1, 0}) {
		t.Error("repeated vertex accepted")
	}
	if isPath(g, nil) {
		t.Error("empty path accepted")
	}
}
