package graph

import "rfclos/internal/rng"

// BFS computes hop distances from src. Unreachable vertices get -1.
// If dist is non-nil and has length g.N() it is reused, avoiding allocation
// in tight loops; otherwise a fresh slice is allocated.
func (g *Graph) BFS(src int, dist []int32) []int32 {
	if len(dist) != g.N() {
		dist = make([]int32, g.N())
	}
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, g.N())
	dist[src] = 0
	queue = append(queue, int32(src))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		du := dist[u]
		for _, v := range g.adj[u] {
			if dist[v] < 0 {
				dist[v] = du + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum finite BFS distance from src, and whether
// every vertex was reachable.
func (g *Graph) Eccentricity(src int, scratch []int32) (ecc int, connected bool) {
	dist := g.BFS(src, scratch)
	connected = true
	for _, d := range dist {
		if d < 0 {
			connected = false
			continue
		}
		if int(d) > ecc {
			ecc = int(d)
		}
	}
	return ecc, connected
}

// Diameter computes the exact diameter by running BFS from every vertex.
// It returns -1 when the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if g.N() == 0 {
		return -1
	}
	scratch := make([]int32, g.N())
	diam := 0
	for v := 0; v < g.N(); v++ {
		ecc, ok := g.Eccentricity(v, scratch)
		if !ok {
			return -1
		}
		if ecc > diam {
			diam = ecc
		}
	}
	return diam
}

// DiameterSampled lower-bounds the diameter by running BFS from `samples`
// random sources (plus a double-sweep heuristic start). For random graphs of
// this paper's kind, the estimate is almost always exact. Returns -1 when a
// sampled source cannot reach some vertex.
func (g *Graph) DiameterSampled(samples int, r *rng.Rand) int {
	if g.N() == 0 {
		return -1
	}
	scratch := make([]int32, g.N())
	best := 0
	// Double sweep: BFS from a random vertex, then from the farthest vertex
	// found. This alone is usually tight on expanders.
	start := r.Intn(g.N())
	dist := g.BFS(start, scratch)
	far, farD := start, int32(0)
	for v, d := range dist {
		if d < 0 {
			return -1
		}
		if d > farD {
			far, farD = v, d
		}
	}
	ecc, ok := g.Eccentricity(far, scratch)
	if !ok {
		return -1
	}
	best = ecc
	for i := 0; i < samples; i++ {
		ecc, ok := g.Eccentricity(r.Intn(g.N()), scratch)
		if !ok {
			return -1
		}
		if ecc > best {
			best = ecc
		}
	}
	return best
}

// AverageDistance estimates the mean pairwise hop distance by sampling
// `samples` BFS sources (all sources when samples >= N). It returns -1 for
// disconnected graphs.
func (g *Graph) AverageDistance(samples int, r *rng.Rand) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	var sources []int
	if samples >= n {
		sources = make([]int, n)
		for i := range sources {
			sources[i] = i
		}
	} else {
		sources = r.Perm(n)[:samples]
	}
	scratch := make([]int32, n)
	total, count := 0.0, 0.0
	for _, s := range sources {
		dist := g.BFS(s, scratch)
		for v, d := range dist {
			if d < 0 {
				return -1
			}
			if v != s {
				total += float64(d)
				count++
			}
		}
	}
	return total / count
}

// IsConnected reports whether the graph is connected (single component).
// The empty graph is considered connected.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return true
	}
	dist := g.BFS(0, nil)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}
