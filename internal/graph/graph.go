// Package graph provides the graph substrate the topology constructions and
// resiliency experiments are built on: a compact undirected graph type,
// traversal and distance algorithms, the paper's random regular and random
// bipartite generators (Appendix Listings 1 and 2), k-shortest paths,
// unit-capacity max-flow and a bisection heuristic.
package graph

import (
	"fmt"
	"iter"
	"slices"
)

// Graph is an undirected simple graph over vertices 0..N-1 stored as
// adjacency lists. Vertex ids are int32 internally to halve memory on the
// multi-hundred-thousand-node instances used in the expansion experiments.
type Graph struct {
	adj [][]int32
	m   int // number of edges
}

// New returns an empty graph with n vertices.
func New(n int) *Graph {
	return &Graph{adj: make([][]int32, n)}
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Neighbors returns the adjacency list of v. The returned slice is owned by
// the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int32 { return g.adj[v] }

// AddEdge inserts the undirected edge {u, v}. It does not check for
// duplicates; use HasEdge first when simplicity must be preserved.
func (g *Graph) AddEdge(u, v int) {
	g.adj[u] = append(g.adj[u], int32(v))
	g.adj[v] = append(g.adj[v], int32(u))
	g.m++
}

// HasEdge reports whether the edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	a, b := g.adj[u], g.adj[v]
	if len(b) < len(a) {
		a, b = b, a
		u, v = v, u
	}
	for _, w := range a {
		if w == int32(v) {
			return true
		}
	}
	return false
}

// RemoveEdge deletes one copy of the undirected edge {u, v}. It reports
// whether an edge was removed.
func (g *Graph) RemoveEdge(u, v int) bool {
	if !removeOne(&g.adj[u], int32(v)) {
		return false
	}
	if !removeOne(&g.adj[v], int32(u)) {
		// Restore symmetry before reporting corruption.
		g.adj[u] = append(g.adj[u], int32(v))
		panic(fmt.Sprintf("graph: asymmetric adjacency for edge {%d,%d}", u, v))
	}
	g.m--
	return true
}

func removeOne(list *[]int32, v int32) bool {
	l := *list
	for i, w := range l {
		if w == v {
			l[i] = l[len(l)-1]
			*list = l[:len(l)-1]
			return true
		}
	}
	return false
}

// Edge is an undirected edge with U <= V for canonical ordering.
type Edge struct{ U, V int32 }

// Edges returns every edge exactly once, in canonical (U<=V, sorted) order.
// Prefer EdgeSeq when the caller only iterates: this materialises the full
// edge slice.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for e := range g.EdgeSeq() {
		es = append(es, e)
	}
	return es
}

// EdgeSeq yields every edge exactly once in the same canonical order Edges
// returns, buffering only one vertex's neighbour list at a time: for each u
// ascending, the neighbours v >= u are sorted and emitted as (u, v). Since
// the canonical order sorts by U first and V second, the concatenation of
// these per-vertex runs is exactly the globally sorted order.
func (g *Graph) EdgeSeq() iter.Seq[Edge] {
	return func(yield func(Edge) bool) {
		var buf []int32
		for u, ns := range g.adj {
			buf = buf[:0]
			for _, v := range ns {
				if int32(u) <= v {
					buf = append(buf, v)
				}
			}
			slices.Sort(buf)
			for _, v := range buf {
				if !yield(Edge{int32(u), v}) {
					return
				}
			}
		}
	}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{adj: make([][]int32, len(g.adj)), m: g.m}
	for i, ns := range g.adj {
		c.adj[i] = append([]int32(nil), ns...)
	}
	return c
}
