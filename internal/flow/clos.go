package flow

import (
	"slices"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// ClosNetwork routes matrix flows over a folded Clos along random shortest
// up/down paths. Resolve, the per-flow reference, walks through the
// routing layer's per-hop pickers: NextUpPort tests the compressed LeafSet
// covers of each parent, and NextDownPort finds the qualifying children
// from the destination side or by probing their descendant sets. Solve
// instead resolves the flows grouped by destination leaf (closWalker),
// reading per-destination marks for the same choices. When available, a
// precomputed TurnIndex supplies the minimal turn level.
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
	// up[upStart[s]:upStart[s+1]] is Up(s), each entry with the position
	// of the same wire in its parent's Down list.
	up []upLink
	// allUp[s] has bit r set when every parent p of s has a cover_{r-1}(p)
	// as large as cover_r(s), so all of them equal it: an up hop from s
	// with r hops left qualifies every parent.
	allUp []uint32
}

// upLink is one up-list entry: the parent, and the wire's position in the
// parent's down list.
type upLink struct{ to, downPort int32 }

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
	// Pair each up-list entry with its mirror down-list entry; parallel
	// links pair in order of occurrence.
	net.up = make([]upLink, 0, net.upStart[n])
	for s := int32(0); s < int32(n); s++ {
		for _, p := range c.Up(s) {
			net.up = append(net.up, upLink{p, -1})
		}
	}
	for p := int32(0); p < int32(n); p++ {
		for i, ch := range c.Down(p) {
			for j := net.upStart[ch]; j < net.upStart[ch+1]; j++ {
				if l := &net.up[j]; l.to == p && l.downPort < 0 {
					l.downPort = int32(i)
					break
				}
			}
		}
	}
	// size[s] is |cover_r(s)| for the r at hand, or -1 where it is nil.
	net.allUp = make([]uint32, n)
	size, prev := make([]int, n), make([]int, n)
	for r := 0; r < c.Levels(); r++ {
		size, prev = prev, size
		for s := range size {
			size[s] = -1
			if cov := ud.Cover(r, int32(s)); cov != nil {
				size[s] = cov.Count()
			}
		}
		if r == 0 {
			continue
		}
		for s := int32(0); s < int32(n); s++ {
			up := net.up[net.upStart[s]:net.upStart[s+1]]
			all := size[s] >= 0 && len(up) > 0
			for _, l := range up {
				all = all && prev[l.to] == size[s]
			}
			if all {
				net.allUp[s] |= 1 << r
			}
		}
	}
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

// destGroups implements Network: one group per leaf.
func (n *ClosNetwork) destGroups() int { return n.c.LevelSize(1) }

// destGroup implements Network: dst's leaf.
func (n *ClosNetwork) destGroup(dst int32) int32 { return n.c.LeafOfTerminal(int(dst)) }

// newWalker implements Network.
func (n *ClosNetwork) newWalker() groupWalker {
	return &closWalker{n: n, stamp: make([]uint32, n.c.NumSwitches())}
}

// closWalker resolves the flows into one destination leaf d. It stamps d's
// ancestors level by level, as far up as the group's flows need: A_1 = {d}
// and A_{k+1} = the parents of A_k. A switch at level k has d below it
// exactly when it is in A_k, so a hop reads stamps instead of cover sets:
//   - a down hop from s into level k takes the ports of s's stamped
//     children, ascending, as the pickers want them. It scans s's down
//     list, or, when the up lists of A_k are shorter (a wide switch above
//     a narrow ancestor set, like an XGFT root), collects the ports of
//     their links into s and sorts them;
//   - the last up hop takes the parents in the next ancestor level (see
//     lastUp);
//   - an up hop from a switch all of whose parents qualify (allUp) draws
//     among all of them without reading anything;
//   - any other up hop probes the parents' covers through NextUpPort.
//
// The down hops of a flow turning at level k+1 read stamps up to level k,
// so levels are stamped on first use, and level k+1 only when a last up
// hop finds that cheaper than asking its parents.
//
// Every hop draws what NextUpPort or NextDownPort would: a reservoir over
// the qualifying ports in port order.
type closWalker struct {
	n *ClosNetwork
	d int32 // the destination leaf
	// stamp[s] == gen marks switch s as an ancestor of d.
	stamp []uint32
	gen   uint32
	// anc lists the marked ancestors level by level: level k is
	// anc[levEnd[k-2]:levEnd[k-1]] (level 1 is anc[:1]), and ups[k-1]
	// counts their up-list entries.
	anc    []int32
	levEnd []int
	ups    []int
	// near is scratch for the qualifying ports of one hop.
	near []int32
}

// start implements groupWalker: it marks A_1 = {d}.
func (w *closWalker) start(g int32) {
	w.d = g
	w.gen++
	w.stamp[g] = w.gen
	w.anc = append(w.anc[:0], g)
	w.levEnd = append(w.levEnd[:0], 1)
	w.ups = append(w.ups[:0], int(w.n.upStart[g+1]-w.n.upStart[g]))
}

// mark extends the marks up to level lev.
func (w *closWalker) mark(lev int) {
	n := w.n
	for k := len(w.levEnd); k < lev; k = len(w.levEnd) {
		lo := 0
		if k > 1 {
			lo = w.levEnd[k-2]
		}
		ups := 0
		for _, a := range w.anc[lo:w.levEnd[k-1]] {
			for _, l := range n.up[n.upStart[a]:n.upStart[a+1]] {
				if p := l.to; w.stamp[p] != w.gen {
					w.stamp[p] = w.gen
					w.anc = append(w.anc, p)
					ups += int(n.upStart[p+1] - n.upStart[p])
				}
			}
		}
		w.levEnd = append(w.levEnd, len(w.anc))
		w.ups = append(w.ups, ups)
	}
}

// downPorts returns the ports of down, the down list of s, into A_k,
// ascending, for a switch s at level k+1 with levels up to k marked.
func (w *closWalker) downPorts(s int32, down []int32, k int) []int32 {
	n := w.n
	if w.ups[k-1] >= len(down) {
		near, c := w.scratch(len(down)), 0
		for i, ch := range down {
			near[c] = int32(i)
			if w.stamp[ch] == w.gen {
				c++
			}
		}
		return near[:c]
	}
	lo := 0
	if k > 1 {
		lo = w.levEnd[k-2]
	}
	near := w.near[:0]
	for _, a := range w.anc[lo:w.levEnd[k-1]] {
		for _, l := range n.up[n.upStart[a]:n.upStart[a+1]] {
			if l.to == s {
				near = append(near, l.downPort)
			}
		}
	}
	slices.Sort(near)
	w.near = near
	return near
}

// lastUp picks the last up hop from the up list up of a switch at level
// turn: uniformly among the parents in A_{turn+1}, or -1. Marking
// A_{turn+1} walks every up link of A_turn once per group, while asking a
// parent directly scans its down list for a stamped child; a flow asks
// directly while the level is unmarked and that is the cheaper of the two
// for it alone, so a level that only a few of the group's flows turn at
// (the top of a random folded Clos) is never marked.
func (w *closWalker) lastUp(up []upLink, turn int, r *rng.Rand) int {
	n := w.n
	direct := len(w.levEnd) <= turn
	if direct {
		cost := 0
		for _, l := range up {
			cost += int(n.downStart[l.to+1] - n.downStart[l.to])
		}
		if direct = cost < w.ups[turn-1]; !direct {
			w.mark(turn + 1)
		}
	}
	near, c := w.scratch(len(up)), 0
	for i, l := range up {
		near[c] = int32(i)
		if direct && w.anyStamped(n.c.Down(l.to)) || !direct && w.stamp[l.to] == w.gen {
			c++
		}
	}
	if c == 0 {
		return -1
	}
	return int(near[r.Reservoir(c)])
}

// anyStamped reports whether any of the switches in list is stamped.
func (w *closWalker) anyStamped(list []int32) bool {
	for _, s := range list {
		if w.stamp[s] == w.gen {
			return true
		}
	}
	return false
}

// scratch returns w.near resized to k entries.
func (w *closWalker) scratch(k int) []int32 {
	if cap(w.near) < k {
		w.near = make([]int32, k)
	}
	return w.near[:k]
}

// resolve implements groupWalker.
func (w *closWalker) resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool) {
	n := w.n
	buf = append(buf, src)
	t := int32(n.c.Terminals())
	sl := n.c.LeafOfTerminal(int(src))
	if src == dst || sl == w.d {
		return append(buf, t+dst), true
	}
	turn := n.minTurn(int(sl), int(w.d))
	if turn < 0 {
		return nil, false
	}
	w.mark(turn)
	s := sl
	for rem := turn; rem > 0; rem-- {
		up := n.up[n.upStart[s]:n.upStart[s+1]]
		p := -1
		switch {
		case n.allUp[s]>>rem&1 != 0:
			p = r.Reservoir(len(up))
		case rem == 1:
			p = w.lastUp(up, turn, r)
		default:
			p = n.ud.NextUpPort(s, rem, int(w.d), r)
		}
		if p < 0 {
			return nil, false
		}
		buf = append(buf, n.upBase+n.upStart[s]+int32(p))
		s = up[p].to
	}
	for k := turn; k > 0; k-- {
		down := n.c.Down(s)
		ports := w.downPorts(s, down, k)
		if len(ports) == 0 {
			return nil, false
		}
		p := ports[r.Reservoir(len(ports))]
		buf = append(buf, n.downBase+n.downStart[s]+p)
		s = down[p]
	}
	return append(buf, t+dst), true
}
