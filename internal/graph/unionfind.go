package graph

// UnionFind is a disjoint-set forest with union by rank and path halving.
// It is the workhorse of the offline "remove random links until the network
// disconnects" experiment (Table 3), which is solved by adding links back in
// reverse removal order.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int
}

// NewUnionFind returns n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{
		parent: make([]int32, n),
		rank:   make([]int8, n),
		count:  n,
	}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
	}
	return uf
}

// Find returns the representative of x's set.
func (uf *UnionFind) Find(x int) int {
	p := uf.parent
	for p[x] != int32(x) {
		p[x] = p[p[x]] // path halving
		x = int(p[x])
	}
	return x
}

// Union merges the sets of x and y, reporting whether a merge happened.
func (uf *UnionFind) Union(x, y int) bool {
	rx, ry := uf.Find(x), uf.Find(y)
	if rx == ry {
		return false
	}
	if uf.rank[rx] < uf.rank[ry] {
		rx, ry = ry, rx
	}
	uf.parent[ry] = int32(rx)
	if uf.rank[rx] == uf.rank[ry] {
		uf.rank[rx]++
	}
	uf.count--
	return true
}

// Count returns the current number of disjoint sets.
func (uf *UnionFind) Count() int { return uf.count }
