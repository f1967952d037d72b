package flow

import (
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// ClosNetwork routes matrix flows over a folded Clos along random shortest
// up/down paths through the routing layer's per-hop pickers: NextUpPort
// tests the compressed LeafSet covers of each parent, and NextDownPort
// finds the qualifying children from the destination side (dst's
// ancestors one level below the switch), so a down hop from a wide switch
// reads a few up-lists instead of probing one descendant set per child.
// When available, a precomputed TurnIndex supplies the minimal turn level.
//
// Directed link ids: [0, T) terminal injection, [T, 2T) terminal ejection,
// then one id per (switch, up-port) in switch-id order, then one per
// (switch, down-port) — the two directions of every wire are independent
// capacity, as in the cycle engine's channel model.
type ClosNetwork struct {
	c   *topology.Clos
	ud  *routing.UpDown
	idx routing.TurnIndex // optional; nil falls back to ud.MinTurn
	// upStart/downStart are per-switch prefix sums of up-/down-degree,
	// frozen at construction (the topology must not mutate afterwards).
	upStart, downStart []int32
	upBase, downBase   int32
	links              int
}

// NewClos builds the adapter. idx may be nil; passing the build's
// TurnIndex (as rfcd's cached topologies do) skips the per-flow cover-set
// scan for the turn level.
func NewClos(c *topology.Clos, ud *routing.UpDown, idx routing.TurnIndex) *ClosNetwork {
	n := c.NumSwitches()
	net := &ClosNetwork{c: c, ud: ud, idx: idx,
		upStart: make([]int32, n+1), downStart: make([]int32, n+1)}
	for s := 0; s < n; s++ {
		net.upStart[s+1] = net.upStart[s] + int32(len(c.Up(int32(s))))
		net.downStart[s+1] = net.downStart[s] + int32(len(c.Down(int32(s))))
	}
	t := int32(c.Terminals())
	net.upBase = 2 * t
	net.downBase = net.upBase + net.upStart[n]
	net.links = int(net.downBase + net.downStart[n])
	return net
}

// Terminals implements Network.
func (n *ClosNetwork) Terminals() int { return n.c.Terminals() }

// NumLinks implements Network.
func (n *ClosNetwork) NumLinks() int { return n.links }

// minTurn resolves the minimal turn level through the index when present.
func (n *ClosNetwork) minTurn(src, dst int) int {
	if n.idx != nil {
		return n.idx.MinTurn(src, dst)
	}
	return n.ud.MinTurn(src, dst)
}

// Resolve implements Network: injection link, a random shortest up/down
// path (uniform per hop among minimal next hops, like the cycle engine's
// adaptive policy), ejection link.
func (n *ClosNetwork) Resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool) {
	buf = append(buf, src)
	t := int32(n.c.Terminals())
	if src == dst {
		return append(buf, t+dst), true
	}
	sl, dl := n.c.LeafOfTerminal(int(src)), n.c.LeafOfTerminal(int(dst))
	if sl != dl {
		dli := int(dl) // leaf switch ids coincide with leaf indices
		turn := n.minTurn(int(sl), dli)
		if turn < 0 {
			return nil, false
		}
		s := sl
		for rem := turn; rem > 0; rem-- {
			p := n.ud.NextUpPort(s, rem, dli, r)
			if p < 0 {
				return nil, false
			}
			buf = append(buf, n.upBase+n.upStart[s]+int32(p))
			s = n.c.Up(s)[p]
		}
		for n.c.LevelOf(s) > 1 {
			p := n.ud.NextDownPort(s, dli, r)
			if p < 0 {
				return nil, false
			}
			buf = append(buf, n.downBase+n.downStart[s]+int32(p))
			s = n.c.Down(s)[p]
		}
	}
	return append(buf, t+dst), true
}
