package graph

// EdgeConnectivity returns the maximum number of edge-disjoint paths between
// s and t (equivalently the s-t min cut in a unit-capacity network), computed
// with Dinic's algorithm. Each undirected edge becomes a pair of directed
// arcs with capacity 1 in each direction.
//
// Path diversity is the quantity §7 links to fault-tolerance ("it is the low
// path diversity of OFT which makes it very sensitive to faults"), so the
// resiliency analysis and tests use this to measure it directly.
func (g *Graph) EdgeConnectivity(s, t int) int {
	if s == t {
		return 0
	}
	d := newDinic(g)
	return d.maxFlow(int32(s), int32(t))
}

// dinic is a unit-capacity max-flow solver over a static copy of the graph.
type dinic struct {
	head  []int32 // first arc index per vertex
	next  []int32 // next arc in the list
	to    []int32 // arc target
	cap   []int8  // residual capacity (0 or 1, may reach 2 transiently)
	level []int32
	iter  []int32
}

func newDinic(g *Graph) *dinic {
	n := g.N()
	d := &dinic{
		head:  make([]int32, n),
		level: make([]int32, n),
		iter:  make([]int32, n),
	}
	for i := range d.head {
		d.head[i] = -1
	}
	for _, e := range g.Edges() {
		d.addArcPair(e.U, e.V)
	}
	return d
}

// addArcPair adds arcs u->v and v->u, each with capacity 1 and each serving
// as the other's residual arc (valid for undirected unit-capacity graphs).
func (d *dinic) addArcPair(u, v int32) {
	d.to = append(d.to, v)
	d.cap = append(d.cap, 1)
	d.next = append(d.next, d.head[u])
	d.head[u] = int32(len(d.to) - 1)

	d.to = append(d.to, u)
	d.cap = append(d.cap, 1)
	d.next = append(d.next, d.head[v])
	d.head[v] = int32(len(d.to) - 1)
}

func (d *dinic) bfs(s, t int32) bool {
	for i := range d.level {
		d.level[i] = -1
	}
	d.level[s] = 0
	queue := []int32{s}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for a := d.head[u]; a != -1; a = d.next[a] {
			if d.cap[a] > 0 && d.level[d.to[a]] < 0 {
				d.level[d.to[a]] = d.level[u] + 1
				queue = append(queue, d.to[a])
			}
		}
	}
	return d.level[t] >= 0
}

func (d *dinic) dfs(u, t int32) bool {
	if u == t {
		return true
	}
	for ; d.iter[u] != -1; d.iter[u] = d.next[d.iter[u]] {
		a := d.iter[u]
		v := d.to[a]
		if d.cap[a] > 0 && d.level[v] == d.level[u]+1 && d.dfs(v, t) {
			d.cap[a]--
			d.cap[a^1]++
			return true
		}
	}
	return false
}

func (d *dinic) maxFlow(s, t int32) int {
	flow := 0
	for d.bfs(s, t) {
		copy(d.iter, d.head)
		for d.dfs(s, t) {
			flow++
		}
	}
	return flow
}
