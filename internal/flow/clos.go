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
	sw := n.c.NumSwitches()
	return &closWalker{n: n, stamp: make([]uint32, sw),
		head: make([]int32, sw), lo: make([]int32, sw), hi: make([]int32, sw)}
}

// closWalker resolves the flows into one destination leaf d. It marks d's
// ancestors level by level, as far up as the group's flows turn: A_1 =
// {d} and A_{k+1} = the parents of A_k. A switch at level k has d below it
// exactly when it is in A_k, and its down ports toward d are its links
// into A_{k-1}, which marking A_k lists. So a hop reads marks instead of
// cover sets:
//   - a down hop from s takes s's listed ports;
//   - the last up hop takes the marked parents;
//   - an up hop from a switch all of whose parents qualify (allUp) draws
//     among all of them without reading anything;
//   - any other up hop probes the parents' covers through NextUpPort.
//
// Every hop draws what NextUpPort or NextDownPort would: a reservoir over
// the qualifying ports in port order.
type closWalker struct {
	n *ClosNetwork
	d int32 // the destination leaf
	// stamp[s] == gen marks switch s as an ancestor of d; the per-switch
	// fields below are meaningful only for marked switches.
	stamp []uint32
	gen   uint32
	// anc lists the marked ancestors level by level: level k is
	// anc[levEnd[k-2]:levEnd[k-1]] (level 1 is anc[:1]).
	anc    []int32
	levEnd []int
	// link[head[s]], link[link[head[s]].next], ... list s's down ports
	// toward d. The first down hop from s sorts them into
	// ports[lo[s]:hi[s]]; lo[s] < 0 until then.
	head, lo, hi []int32
	link         []portLink
	ports        []int32
}

// portLink is one entry of an ancestor's list of down ports toward d.
type portLink struct{ port, next int32 }

// start implements groupWalker: it marks A_1 = {d}.
func (w *closWalker) start(g int32) {
	w.d = g
	w.gen++
	w.stamp[g] = w.gen
	w.anc = append(w.anc[:0], g)
	w.levEnd = append(w.levEnd[:0], 1)
	w.link, w.ports = w.link[:0], w.ports[:0]
}

// mark extends the marks up to level lev.
func (w *closWalker) mark(lev int) {
	n := w.n
	for k := len(w.levEnd); k < lev; k = len(w.levEnd) {
		lo := 0
		if k > 1 {
			lo = w.levEnd[k-2]
		}
		for _, a := range w.anc[lo:w.levEnd[k-1]] {
			for _, l := range n.up[n.upStart[a]:n.upStart[a+1]] {
				p := l.to
				if w.stamp[p] != w.gen {
					w.stamp[p], w.head[p], w.lo[p] = w.gen, -1, -1
					w.anc = append(w.anc, p)
				}
				w.link = append(w.link, portLink{l.downPort, w.head[p]})
				w.head[p] = int32(len(w.link) - 1)
			}
		}
		w.levEnd = append(w.levEnd, len(w.anc))
	}
}

// downPorts returns marked ancestor s's down ports toward d, ascending.
func (w *closWalker) downPorts(s int32) []int32 {
	if w.lo[s] < 0 {
		w.lo[s] = int32(len(w.ports))
		for l := w.head[s]; l >= 0; l = w.link[l].next {
			w.ports = append(w.ports, w.link[l].port)
		}
		w.hi[s] = int32(len(w.ports))
		slices.Sort(w.ports[w.lo[s]:])
	}
	return w.ports[w.lo[s]:w.hi[s]]
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
	w.mark(turn + 1)
	s := sl
	for rem := turn; rem > 0; rem-- {
		up := n.up[n.upStart[s]:n.upStart[s+1]]
		p := -1
		switch {
		case n.allUp[s]>>rem&1 != 0:
			p = reservoir(len(up), r)
		case rem == 1:
			count := 0
			for i, l := range up {
				if w.stamp[l.to] == w.gen {
					count++
					if count == 1 || r.Intn(count) == 0 {
						p = i
					}
				}
			}
		default:
			p = n.ud.NextUpPort(s, rem, int(w.d), r)
		}
		if p < 0 {
			return nil, false
		}
		buf = append(buf, n.upBase+n.upStart[s]+int32(p))
		s = up[p].to
	}
	for range turn {
		ports := w.downPorts(s)
		if len(ports) == 0 {
			return nil, false
		}
		p := ports[reservoir(len(ports), r)]
		buf = append(buf, n.downBase+n.downStart[s]+p)
		s = n.c.Down(s)[p]
	}
	return append(buf, t+dst), true
}

// reservoir replays routing's uniform reservoir sample over k candidates
// in order: it draws Intn(c) for c = 2..k, keeping candidate c-1 whenever
// the draw is 0, and returns the kept candidate's position (-1 when k is
// 0).
func reservoir(k int, r *rng.Rand) int {
	if k == 0 {
		return -1
	}
	w := 0
	for c := 2; c <= k; c++ {
		if r.Intn(c) == 0 {
			w = c - 1
		}
	}
	return w
}
