package flow

import (
	"errors"
	"fmt"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// RRNNetwork routes matrix flows over a random regular network along random
// ECMP-shortest paths. Construction precomputes the all-pairs hop table
// (graph.HopTable, the same for any worker count), and Resolve walks
// greedily from the source switch, choosing uniformly among neighbours one
// hop closer to the destination.
//
// Directed link ids mirror ClosNetwork: [0, T) injection, [T, 2T) ejection,
// then one id per (switch, adjacency slot) — each direction of a wire is
// separate capacity.
type RRNNetwork struct {
	r *topology.RRN
	// dist[d] is the hop-distance row to destination switch d; rows are
	// uint8 (RRN diameters are tiny) to keep the n×n table affordable at
	// 10× paper scale.
	dist [][]uint8
	// adjStart is the per-switch prefix sum of degree.
	adjStart []int32
	termBase int32
	links    int
}

// NewRRN builds the adapter, computing the all-pairs hop table
// (graph.HopTable) on up to `workers` goroutines (0 = one per CPU).
func NewRRN(r *topology.RRN, workers int) (*RRNNetwork, error) {
	n := r.N()
	net := &RRNNetwork{r: r, adjStart: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		net.adjStart[v+1] = net.adjStart[v] + int32(len(r.G.Neighbors(v)))
	}
	net.termBase = int32(r.Terminals())
	net.links = int(2*net.termBase + net.adjStart[n])
	rows, _, err := r.G.HopTable(workers)
	var he *graph.HopError
	if errors.As(err, &he) {
		return nil, fmt.Errorf("flow: RRN switch %d unreachable from %d (distance %d)", he.To, he.From, he.Dist)
	}
	if err != nil {
		return nil, err
	}
	net.dist = rows
	return net, nil
}

// Terminals implements Network.
func (n *RRNNetwork) Terminals() int { return n.r.Terminals() }

// NumLinks implements Network.
func (n *RRNNetwork) NumLinks() int { return n.links }

// Resolve implements Network.
func (n *RRNNetwork) Resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool) {
	buf, _, ok := n.walk(n.dist[dst/int32(n.r.TermsPerSwitch)], src, dst, r, buf, nil)
	return buf, ok
}

// walk is Resolve with the hop-distance row of dst's switch supplied. near
// is scratch for the closer neighbours' ports; it grows as needed and is
// returned.
func (n *RRNNetwork) walk(row []uint8, src, dst int32, r *rng.Rand, buf, near []int32) ([]int32, []int32, bool) {
	buf = append(buf, src)
	if src == dst {
		return append(buf, n.termBase+dst), near, true
	}
	tps := int32(n.r.TermsPerSwitch)
	v, dsw := src/tps, dst/tps
	for v != dsw {
		want := row[v] - 1
		// Gather the neighbours one hop closer, then draw uniformly among
		// them: the draws of a reservoir over them in port order.
		adj := n.r.G.Neighbors(int(v))
		if cap(near) < len(adj) {
			near = make([]int32, len(adj))
		}
		near = near[:len(adj)]
		c := 0
		for i, w := range adj {
			near[c] = int32(i)
			if row[w] == want {
				c++
			}
		}
		if c == 0 {
			return nil, near, false
		}
		port := near[r.Reservoir(c)]
		buf = append(buf, 2*n.termBase+n.adjStart[v]+port)
		v = adj[port]
	}
	return append(buf, n.termBase+dst), near, true
}

// destGroups implements Network: one group per switch.
func (n *RRNNetwork) destGroups() int { return n.r.N() }

// destGroup implements Network: dst's switch.
func (n *RRNNetwork) destGroup(dst int32) int32 { return dst / int32(n.r.TermsPerSwitch) }

// newWalker implements Network.
func (n *RRNNetwork) newWalker() groupWalker { return &rrnWalker{n: n} }

// rrnWalker resolves the flows into one destination switch, all along its
// hop-distance row.
type rrnWalker struct {
	n    *RRNNetwork
	row  []uint8
	near []int32 // walk's scratch
}

// start implements groupWalker.
func (w *rrnWalker) start(g int32) { w.row = w.n.dist[g] }

// resolve implements groupWalker.
func (w *rrnWalker) resolve(src, dst int32, r *rng.Rand, buf []int32) (_ []int32, ok bool) {
	buf, w.near, ok = w.n.walk(w.row, src, dst, r, buf, w.near)
	return buf, ok
}
