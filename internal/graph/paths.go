package graph

import "sort"

// ShortestPath returns one shortest path from s to t as a vertex sequence
// (inclusive of both endpoints), or nil when t is unreachable. Ties are
// broken deterministically by smallest parent id, so results are stable.
func (g *Graph) ShortestPath(s, t int) []int32 {
	return g.shortestPathAvoiding(s, t, nil, nil)
}

// shortestPathAvoiding is a BFS that ignores vertices in bannedV and edges in
// bannedE (canonical Edge keys). Either map may be nil.
func (g *Graph) shortestPathAvoiding(s, t int, bannedV map[int32]bool, bannedE map[Edge]bool) []int32 {
	if s == t {
		return []int32{int32(s)}
	}
	if bannedV[int32(s)] || bannedV[int32(t)] {
		return nil
	}
	parent := make([]int32, g.N())
	for i := range parent {
		parent[i] = -2 // unvisited
	}
	parent[s] = -1
	queue := []int32{int32(s)}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.adj[u] {
			if parent[v] != -2 || bannedV[v] {
				continue
			}
			if bannedE != nil && bannedE[canonEdge(u, v)] {
				continue
			}
			parent[v] = u
			if v == int32(t) {
				return buildPath(parent, t)
			}
			queue = append(queue, v)
		}
	}
	return nil
}

func canonEdge(u, v int32) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

func buildPath(parent []int32, t int) []int32 {
	var rev []int32
	for v := int32(t); v != -1; v = parent[v] {
		rev = append(rev, v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// KShortestPaths returns up to k loopless shortest paths from s to t in
// non-decreasing length order, using Yen's algorithm over unweighted BFS.
// This is the routing substrate the Jellyfish paper prescribes for RRNs and
// is used in the RRN comparisons.
func (g *Graph) KShortestPaths(s, t, k int) [][]int32 {
	if k <= 0 {
		return nil
	}
	first := g.ShortestPath(s, t)
	if first == nil {
		return nil
	}
	paths := [][]int32{first}
	var candidates [][]int32
	for len(paths) < k {
		prev := paths[len(paths)-1]
		// Each prefix of the previous path is a spur root.
		for i := 0; i < len(prev)-1; i++ {
			spurNode := prev[i]
			rootPath := prev[:i+1]
			bannedE := make(map[Edge]bool)
			bannedV := make(map[int32]bool)
			// Ban edges used by already-accepted paths sharing this root.
			for _, p := range paths {
				if len(p) > i && pathPrefixEq(p, rootPath) {
					bannedE[canonEdge(p[i], p[i+1])] = true
				}
			}
			// Ban root-path vertices except the spur node itself.
			for _, v := range rootPath[:len(rootPath)-1] {
				bannedV[v] = true
			}
			spur := g.shortestPathAvoiding(int(spurNode), t, bannedV, bannedE)
			if spur == nil {
				continue
			}
			cand := append(append([]int32{}, rootPath[:len(rootPath)-1]...), spur...)
			if !containsPath(candidates, cand) && !containsPath(paths, cand) {
				candidates = append(candidates, cand)
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if len(candidates[a]) != len(candidates[b]) {
				return len(candidates[a]) < len(candidates[b])
			}
			return lessPath(candidates[a], candidates[b])
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}

func pathPrefixEq(p, prefix []int32) bool {
	for i, v := range prefix {
		if p[i] != v {
			return false
		}
	}
	return true
}

func containsPath(set [][]int32, p []int32) bool {
	for _, q := range set {
		if len(q) == len(p) && pathPrefixEq(q, p) {
			return true
		}
	}
	return false
}

func lessPath(a, b []int32) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
