package graph

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"rfclos/internal/rng"
)

func TestRandomRegularBasic(t *testing.T) {
	r := rng.New(100)
	for _, tc := range []struct{ n, d int }{
		{10, 3}, {16, 4}, {50, 6}, {100, 3}, {64, 8}, {7, 4},
	} {
		g, err := RandomRegular(tc.n, tc.d, r)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", tc.n, tc.d, err)
		}
		if !isRegular(g, tc.d) {
			t.Errorf("(%d,%d): not %d-regular", tc.n, tc.d, tc.d)
		}
		if !isSimple(g) {
			t.Errorf("(%d,%d): not simple", tc.n, tc.d)
		}
		if g.M() != tc.n*tc.d/2 {
			t.Errorf("(%d,%d): M=%d want %d", tc.n, tc.d, g.M(), tc.n*tc.d/2)
		}
	}
}

func TestRandomRegularErrors(t *testing.T) {
	r := rng.New(1)
	if _, err := RandomRegular(5, 3, r); err == nil {
		t.Error("odd n*d should fail")
	}
	if _, err := RandomRegular(4, 4, r); err == nil {
		t.Error("d >= n should fail")
	}
	if _, err := RandomRegular(0, 2, r); err == nil {
		t.Error("n = 0 should fail")
	}
	g, err := RandomRegular(5, 0, r)
	if err != nil || g.M() != 0 {
		t.Error("d = 0 should yield empty graph")
	}
}

func TestRandomRegularDense(t *testing.T) {
	// Near-complete case exercises the exhaustive fallback heavily.
	r := rng.New(2)
	g, err := RandomRegular(8, 7, r)
	if err != nil {
		t.Fatal(err)
	}
	if !isRegular(g, 7) || !isSimple(g) {
		t.Error("K8 case: wrong output")
	}
}

func TestRandomRegularProperty(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw%40) + 4
		d := int(dRaw%5) + 2
		if d >= n {
			d = n - 1
		}
		if n*d%2 == 1 {
			n++
		}
		g, err := RandomRegular(n, d, rng.New(seed))
		if err != nil {
			return false
		}
		return isRegular(g, d) && isSimple(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomRegularConnectivity(t *testing.T) {
	// Random d-regular graphs with d >= 3 are connected w.h.p.; with 20
	// trials at n=100, a disconnection would indicate a generator bug.
	r := rng.New(3)
	for i := 0; i < 20; i++ {
		g, err := RandomRegular(100, 3, r)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsConnected() {
			t.Fatalf("trial %d: 3-regular random graph on 100 vertices disconnected", i)
		}
	}
}

func TestRandomRegularDeterministic(t *testing.T) {
	g1, err1 := RandomRegular(30, 4, rng.New(77))
	g2, err2 := RandomRegular(30, 4, rng.New(77))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("edge counts differ")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestRandomBipartiteBasic(t *testing.T) {
	r := rng.New(5)
	for _, tc := range []struct{ n1, d1, n2, d2 int }{
		{8, 2, 4, 4}, {16, 3, 12, 4}, {10, 5, 10, 5}, {6, 2, 3, 4}, {20, 4, 16, 5},
	} {
		b, err := RandomBipartite(tc.n1, tc.d1, tc.n2, tc.d2, r)
		if err != nil {
			t.Fatalf("RandomBipartite(%v): %v", tc, err)
		}
		if err := validateBipartite(b, tc.d1, tc.d2); err != nil {
			t.Errorf("RandomBipartite(%v): %v", tc, err)
		}
	}
}

func TestRandomBipartiteErrors(t *testing.T) {
	r := rng.New(6)
	if _, err := RandomBipartite(4, 3, 5, 2, r); err == nil {
		t.Error("unbalanced point counts should fail")
	}
	if _, err := RandomBipartite(2, 6, 4, 3, r); err == nil {
		t.Error("d1 > n2 should fail")
	}
	b, err := RandomBipartite(3, 0, 2, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateBipartite(b, 0, 0); err != nil {
		t.Error(err)
	}
}

func TestRandomBipartiteComplete(t *testing.T) {
	// d1 == n2 forces the complete bipartite graph; exercises fallback.
	r := rng.New(7)
	b, err := RandomBipartite(4, 3, 3, 4, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateBipartite(b, 3, 4); err != nil {
		t.Error(err)
	}
	for i, ns := range b.AdjA {
		if len(ns) != 3 {
			t.Errorf("A-vertex %d degree %d, want 3 (complete)", i, len(ns))
		}
	}
}

func TestRandomBipartiteProperty(t *testing.T) {
	f := func(seed uint64, aRaw, dRaw uint8) bool {
		n1 := int(aRaw%16) + 2
		d1 := int(dRaw%4) + 1
		if d1 > n1 {
			d1 = n1
		}
		// Pick n2, d2 with n1*d1 == n2*d2: use d2 = d1, n2 = n1.
		b, err := RandomBipartite(n1, d1, n1, d1, rng.New(seed))
		if err != nil {
			return false
		}
		return validateBipartite(b, d1, d1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRandomBipartiteEdgeDistribution(t *testing.T) {
	// Every (A,B) pair should appear with roughly equal frequency across
	// many generations: d1/n2 per pair.
	const n1, d1, n2, d2, trials = 6, 2, 6, 2, 3000
	counts := make([][]int, n1)
	for i := range counts {
		counts[i] = make([]int, n2)
	}
	r := rng.New(8)
	for trial := 0; trial < trials; trial++ {
		b, err := RandomBipartite(n1, d1, n2, d2, r)
		if err != nil {
			t.Fatal(err)
		}
		for i, ns := range b.AdjA {
			for _, j := range ns {
				counts[i][j]++
			}
		}
	}
	want := float64(trials) * float64(d1) / float64(n2)
	for i := range counts {
		for j := range counts[i] {
			got := float64(counts[i][j])
			if got < want*0.8 || got > want*1.2 {
				t.Errorf("pair (%d,%d) appeared %v times, want ~%v", i, j, got, want)
			}
		}
	}
}

// Benchmarks over increasing sizes let the Theorem 9.1 complexity claim
// (near-linear expected time, O(NΔ ln Δ)) be eyeballed from -bench output.
func benchmarkRandomRegular(b *testing.B, n, d int) {
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomRegular(n, d, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRandomRegularN1000D8(b *testing.B)  { benchmarkRandomRegular(b, 1000, 8) }
func BenchmarkRandomRegularN4000D8(b *testing.B)  { benchmarkRandomRegular(b, 4000, 8) }
func BenchmarkRandomRegularN1000D32(b *testing.B) { benchmarkRandomRegular(b, 1000, 32) }

func BenchmarkRandomBipartite(b *testing.B) {
	r := rng.New(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RandomBipartite(648, 18, 648, 18, r); err != nil {
			b.Fatal(err)
		}
	}
}

// isRegular reports whether every vertex of g has degree d.
func isRegular(g *Graph, d int) bool {
	for _, ns := range g.adj {
		if len(ns) != d {
			return false
		}
	}
	return true
}

// isSimple reports whether g has no self-loops and no multi-edges.
func isSimple(g *Graph) bool {
	seen := make(map[int32]struct{})
	for u, ns := range g.adj {
		clear(seen)
		for _, v := range ns {
			if v == int32(u) {
				return false
			}
			if _, dup := seen[v]; dup {
				return false
			}
			seen[v] = struct{}{}
		}
	}
	return true
}

// validateBipartite checks b's degree regularity (da on side A, db on side
// B), simplicity and symmetry.
func validateBipartite(b *Bipartite, da, db int) error {
	if len(b.AdjA) != b.NA || len(b.AdjB) != b.NB {
		return errors.New("graph: bipartite adjacency size mismatch")
	}
	for i, ns := range b.AdjA {
		if len(ns) != da {
			return fmt.Errorf("graph: A-vertex %d has degree %d, want %d", i, len(ns), da)
		}
		seen := make(map[int32]struct{}, da)
		for _, v := range ns {
			if v < 0 || int(v) >= b.NB {
				return fmt.Errorf("graph: A-vertex %d has out-of-range neighbour %d", i, v)
			}
			if _, dup := seen[v]; dup {
				return fmt.Errorf("graph: multi-edge at A-vertex %d", i)
			}
			seen[v] = struct{}{}
		}
	}
	deg := make([]int, b.NB)
	for _, ns := range b.AdjA {
		for _, v := range ns {
			deg[v]++
		}
	}
	for j, ns := range b.AdjB {
		if len(ns) != db || deg[j] != db {
			return fmt.Errorf("graph: B-vertex %d has degree %d/%d, want %d", j, len(ns), deg[j], db)
		}
	}
	return nil
}
