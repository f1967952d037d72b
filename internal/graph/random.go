package graph

import (
	"errors"
	"fmt"

	"rfclos/internal/rng"
)

// ErrTooManyRestarts is returned when the pairing process keeps reaching
// dead ends, which indicates infeasible or degenerate parameters.
var ErrTooManyRestarts = errors.New("graph: random generation exceeded restart budget")

const maxRestarts = 1000

// RandomRegular generates a random d-regular simple graph on n vertices with
// the pairing (configuration-model) algorithm of Steger and Wormald, as in
// Listing 1 of the paper: each vertex owns d points, random points are paired
// when "suitable" (no loop, no multi-edge), and the whole process restarts
// from scratch when no suitable pair remains. The output distribution is
// asymptotically uniform over d-regular graphs.
func RandomRegular(n, d int, r *rng.Rand) (*Graph, error) {
	switch {
	case n <= 0 || d < 0:
		return nil, fmt.Errorf("graph: invalid RandomRegular(n=%d, d=%d)", n, d)
	case d >= n:
		return nil, fmt.Errorf("graph: RandomRegular requires d < n (n=%d, d=%d)", n, d)
	case n*d%2 != 0:
		return nil, fmt.Errorf("graph: RandomRegular requires n*d even (n=%d, d=%d)", n, d)
	}
	if d == 0 {
		return New(n), nil
	}
	for restart := 0; restart < maxRestarts; restart++ {
		g, ok := tryRandomRegular(n, d, r)
		if ok {
			return g, nil
		}
	}
	return nil, ErrTooManyRestarts
}

func tryRandomRegular(n, d int, r *rng.Rand) (*Graph, bool) {
	g := New(n)
	// Every vertex ends with exactly d neighbours, so the adjacency lists
	// are carved from one slab, each capped at d: appends never move them
	// and the finished graph holds no spare capacity.
	slab := make([]int32, n*d)
	for v := range g.adj {
		g.adj[v] = slab[v*d : v*d : (v+1)*d]
	}
	// U holds unmatched points; point p belongs to vertex p/d.
	U := make([]int32, n*d)
	for i := range U {
		U[i] = int32(i)
	}
	// After this many consecutive rejected picks, fall back to an
	// exhaustive search for a suitable pair (the listing's "check if there
	// is at least one available edge" step).
	stallLimit := 64 + 16*d
	for len(U) > 0 {
		fails := 0
		paired := false
		for fails < stallLimit {
			i := r.Intn(len(U))
			U[i], U[len(U)-1] = U[len(U)-1], U[i]
			j := r.Intn(len(U) - 1)
			U[j], U[len(U)-2] = U[len(U)-2], U[j]
			u := int(U[len(U)-1]) / d
			v := int(U[len(U)-2]) / d
			if u != v && !g.HasEdge(u, v) {
				U = U[:len(U)-2]
				g.AddEdge(u, v)
				paired = true
				break
			}
			fails++
		}
		if paired {
			continue
		}
		// Exhaustive fallback over vertices that still own points.
		u, v, ok := findSuitable(g, U, d)
		if !ok {
			return nil, false // dead end: restart
		}
		popPointOf(&U, u, d)
		popPointOf(&U, v, d)
		g.AddEdge(u, v)
	}
	return g, true
}

// findSuitable scans the remaining points for any suitable vertex pair.
func findSuitable(g *Graph, U []int32, d int) (int, int, bool) {
	avail := availableVertices(U, d)
	for i, u := range avail {
		for _, v := range avail[i:] {
			// A vertex can appear twice in avail conceptually (multiple
			// points) but avail is deduplicated, so u != v must hold, except
			// a vertex with >= 2 remaining points could pair with itself —
			// which would be a loop and is never suitable anyway.
			if u != v && !g.HasEdge(u, v) {
				return u, v, true
			}
		}
	}
	return 0, 0, false
}

func availableVertices(U []int32, d int) []int {
	seen := make(map[int]struct{}, len(U))
	var out []int
	for _, p := range U {
		v := int(p) / d
		if _, ok := seen[v]; !ok {
			seen[v] = struct{}{}
			out = append(out, v)
		}
	}
	return out
}

func popPointOf(U *[]int32, v, d int) {
	u := *U
	for i, p := range u {
		if int(p)/d == v {
			u[i] = u[len(u)-1]
			*U = u[:len(u)-1]
			return
		}
	}
	panic(fmt.Sprintf("graph: vertex %d has no remaining point", v))
}

// Bipartite is the result of RandomBipartite: AdjA[i] lists the B-side
// neighbours of A-vertex i (values in [0,NB)), and AdjB the reverse.
type Bipartite struct {
	NA, NB     int
	AdjA, AdjB [][]int32
}

// RandomBipartite generates a random bipartite simple graph with n1 vertices
// of degree d1 on side A and n2 vertices of degree d2 on side B, following
// Listing 2 of the paper. It requires n1*d1 == n2*d2.
func RandomBipartite(n1, d1, n2, d2 int, r *rng.Rand) (*Bipartite, error) {
	switch {
	case n1 <= 0 || n2 <= 0 || d1 < 0 || d2 < 0:
		return nil, fmt.Errorf("graph: invalid RandomBipartite(%d,%d,%d,%d)", n1, d1, n2, d2)
	case n1*d1 != n2*d2:
		return nil, fmt.Errorf("graph: RandomBipartite needs n1*d1 == n2*d2 (got %d != %d)", n1*d1, n2*d2)
	case d1 > n2 || d2 > n1:
		return nil, fmt.Errorf("graph: RandomBipartite degrees exceed opposite side (%d>%d or %d>%d)", d1, n2, d2, n1)
	}
	if d1 == 0 {
		return &Bipartite{NA: n1, NB: n2, AdjA: make([][]int32, n1), AdjB: make([][]int32, n2)}, nil
	}
	for restart := 0; restart < maxRestarts; restart++ {
		b, ok := tryRandomBipartite(n1, d1, n2, d2, r)
		if ok {
			return b, nil
		}
	}
	return nil, ErrTooManyRestarts
}

func tryRandomBipartite(n1, d1, n2, d2 int, r *rng.Rand) (*Bipartite, bool) {
	b := &Bipartite{
		NA: n1, NB: n2,
		AdjA: make([][]int32, n1),
		AdjB: make([][]int32, n2),
	}
	U1 := make([]int32, n1*d1)
	for i := range U1 {
		U1[i] = int32(i)
	}
	U2 := make([]int32, n2*d2)
	for i := range U2 {
		U2[i] = int32(i)
	}
	hasEdge := func(u, v int) bool {
		for _, w := range b.AdjA[u] {
			if w == int32(v) {
				return true
			}
		}
		return false
	}
	stallLimit := 64 + 8*(d1+d2)
	for len(U1) > 0 {
		fails := 0
		paired := false
		for fails < stallLimit {
			i := r.Intn(len(U1))
			U1[i], U1[len(U1)-1] = U1[len(U1)-1], U1[i]
			j := r.Intn(len(U2))
			U2[j], U2[len(U2)-1] = U2[len(U2)-1], U2[j]
			u := int(U1[len(U1)-1]) / d1
			v := int(U2[len(U2)-1]) / d2
			if !hasEdge(u, v) {
				U1 = U1[:len(U1)-1]
				U2 = U2[:len(U2)-1]
				b.AdjA[u] = append(b.AdjA[u], int32(v))
				b.AdjB[v] = append(b.AdjB[v], int32(u))
				paired = true
				break
			}
			fails++
		}
		if paired {
			continue
		}
		u, v, ok := findSuitableBipartite(b, U1, d1, U2, d2)
		if !ok {
			return nil, false
		}
		popPointOf(&U1, u, d1)
		popPointOf(&U2, v, d2)
		b.AdjA[u] = append(b.AdjA[u], int32(v))
		b.AdjB[v] = append(b.AdjB[v], int32(u))
	}
	return b, true
}

func findSuitableBipartite(b *Bipartite, U1 []int32, d1 int, U2 []int32, d2 int) (int, int, bool) {
	availA := availableVertices(U1, d1)
	availB := availableVertices(U2, d2)
	for _, u := range availA {
		adj := b.AdjA[u]
		if len(adj) == b.NB {
			continue
		}
	nextB:
		for _, v := range availB {
			for _, w := range adj {
				if w == int32(v) {
					continue nextB
				}
			}
			return u, v, true
		}
	}
	return 0, 0, false
}
