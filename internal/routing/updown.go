package routing

import (
	"slices"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// UpDown is the up/down ECMP routing state of a folded Clos network. It
// implements exactly the paper's "shortest injection, up/down random
// request" scheme: a packet for leaf d first computes the minimal number of
// up hops r such that an ancestor of d is reachable (shortest up/down path,
// length 2r), then at each up hop picks uniformly among parents that still
// lead to such an ancestor, turns, and descends picking uniformly among
// children below which d lies. Routes consist of up hops followed by down
// hops only, so the channel dependency graph is acyclic and the routing is
// deadlock-free without virtual-channel ordering (§4.1).
//
// The state is two families of leaf sets:
//
//	desc(s)   = leaves below switch s (cover_0)
//	cover_r(s) = ∪_{p parent of s} cover_{r-1}(p)
//
// cover_r(s) is the set of leaves reachable from s by exactly r up hops
// followed by downs. All sets are rebuilt from the (possibly faulted)
// topology by Rebuild. Sets are stored as compressed LeafSet containers
// (leafset.go) rather than plain N1-bit bitsets, so the state's memory is
// proportional to the compressed size of the covers — orders of magnitude
// below N1²/8 on structured or routable networks — which is what lets the
// serving layer hold paper-scale (200K+ leaf) fabrics in memory.
type UpDown struct {
	c *topology.Clos
	// cover[r][s]; cover[0] is desc. cover[r][s] is nil for switches whose
	// level exceeds l-r (they cannot take r up hops).
	cover [][]LeafSet
	n1    int
	// walkFloor is the fewest up-list entries a destination-side down-hop
	// walk from a switch at level 3 or above can read: the smallest leaf
	// up-degree m1, plus m1 level-2 up-lists of the smallest level-2
	// up-degree m2. downFrontier probes without walking when a switch has
	// fewer children than that.
	walkFloor int
}

// New builds routing state for c. Call Rebuild after mutating the topology
// (e.g. removing links).
func New(c *topology.Clos) *UpDown {
	u := &UpDown{c: c}
	u.Rebuild()
	return u
}

// CoverBytes returns the memory footprint of the routing state's descendant
// and cover containers (the dominant cost; container payloads, container
// struct headers and the cover-table interface slots included, the
// underlying topology excluded). It is the single source of truth for
// cover-memory accounting: SizeBytes (the cache-budget charge) and
// TableStats.CoverBytes (the stats report) both delegate here.
//
// The charge is per slot: a container that several slots share (equal sets
// built once, see descSets) is counted once for each of them. The
// figure is therefore a function of the sets alone, and an upper bound on
// the live bytes once slots share.
func (u *UpDown) CoverBytes() int {
	n := 0
	for _, level := range u.cover {
		n += 16 * len(level) // interface slots
		for _, s := range level {
			if s != nil {
				n += s.SizeBytes()
			}
		}
	}
	return n
}

// SizeBytes returns the memory the serving layer charges against its cache
// budget for this router; it equals CoverBytes.
func (u *UpDown) SizeBytes() int { return u.CoverBytes() }

// CoverRepr summarises which containers the cover sets landed in, as
// "repr:count" pairs in a fixed order with zero counts omitted (e.g.
// "run:520 sparse:64 full:8"). Diagnostic only; surfaced by the service's
// topology summaries and cmd/rfcgen.
func (u *UpDown) CoverRepr() string {
	var counts [len(coverReprOrder)]int
	for _, level := range u.cover {
		for _, s := range level {
			if s == nil {
				continue
			}
			if i := reprIndex(s.Repr()); i >= 0 {
				counts[i]++
			}
		}
	}
	return formatCoverRepr(counts)
}

// Rebuild recomputes every descendant and cover set from the topology,
// level by level bottom-up. Sets are produced one switch at a time through
// a single reusable scratch bitset and compressed immediately, so peak
// transient memory is one N1-bit buffer plus the compressed result.
// Interval-shaped inputs union as sorted run lists without touching the
// scratch at all, and when the topology declares contiguous descendant
// ranges (Clos.LeafRange, set by the XGFT family) desc sets are built
// directly from the declared interval.
func (u *UpDown) Rebuild() {
	c := u.c
	u.n1 = c.LevelSize(1)
	bld := newLeafSetBuilder(u.n1)
	u.cover = make([][]LeafSet, c.Levels())
	u.cover[0] = descSets(c, bld)
	u.finishCovers(bld)
	u.walkFloor = walkFloorOf(c)
}

// descSets builds the descendant (cover_0) set of every switch, each level
// from the one below. The leaf singletons are carved from two slabs, not
// 2·N1 allocations, and switches declaring equal leaf ranges share one
// container.
func descSets(c *topology.Clos, bld *leafSetBuilder) []LeafSet {
	n1 := c.LevelSize(1)
	desc := make([]LeafSet, c.NumSwitches())
	singles := make([]sparseSet, n1)
	ids := make([]int32, n1)
	for i := range singles {
		ids[i] = int32(i)
		singles[i] = sparseSet{n: n1, ids: ids[i : i+1 : i+1]}
		desc[c.SwitchID(1, i)] = &singles[i]
	}
	// ranges maps each declared leaf range, packed lo<<32|hi, to its
	// container.
	ranges := map[uint64]LeafSet{}
	for lev := 2; lev <= c.Levels(); lev++ {
		for i := 0; i < c.LevelSize(lev); i++ {
			s := c.SwitchID(lev, i)
			if lo, hi, ok := c.LeafRange(s); ok {
				key := packRun(lo, hi)
				set, seen := ranges[key]
				if !seen {
					set = bld.fromRange(lo, hi)
					ranges[key] = set
				}
				desc[s] = set
				continue
			}
			bld.reset()
			for _, ch := range c.Down(s) {
				bld.add(desc[ch])
			}
			desc[s] = bld.finish()
		}
	}
	return desc
}

// walkFloorOf computes UpDown.walkFloor for c.
func walkFloorOf(c *topology.Clos) int {
	if c.Levels() < 3 {
		return 0
	}
	m1, m2 := minUpDegree(c, 1), minUpDegree(c, 2)
	return m1 + m1*m2
}

// minUpDegree returns the smallest up-degree among the switches of level
// lev.
func minUpDegree(c *topology.Clos, lev int) int {
	m := len(c.Up(c.SwitchID(lev, 0)))
	for i := 1; i < c.LevelSize(lev); i++ {
		m = min(m, len(c.Up(c.SwitchID(lev, i))))
	}
	return m
}

// finishCovers builds cover_r for r = 1..l-1 over the up-wiring, assuming
// u.cover[0] (desc) is already in place; cover_r(s) exists only for
// switches at levels 1..l-r.
func (u *UpDown) finishCovers(bld *leafSetBuilder) {
	c := u.c
	l := c.Levels()
	total := c.NumSwitches()
	for r := 1; r < l; r++ {
		cov := make([]LeafSet, total)
		prev := u.cover[r-1]
		for lev := 1; lev <= l-r; lev++ {
			for i := 0; i < c.LevelSize(lev); i++ {
				s := c.SwitchID(lev, i)
				bld.reset()
				for _, p := range c.Up(s) {
					if prev[p] != nil {
						bld.add(prev[p])
					}
				}
				cov[s] = bld.finish()
			}
		}
		u.cover[r] = cov
	}
}

// MinTurn returns the minimal number of up hops r >= 0 such that an up/down
// path of length 2r exists from leaf index src to leaf index dst, or -1 when
// no up/down path exists (possible only under faults or sub-threshold
// radices). src == dst returns 0.
func (u *UpDown) MinTurn(src, dst int) int {
	if src == dst {
		return 0
	}
	s := u.c.SwitchID(1, src)
	for r := 1; r < len(u.cover); r++ {
		if cov := u.cover[r][s]; cov != nil && cov.Get(dst) {
			return r
		}
	}
	return -1
}

// NextDown picks uniformly at random a child of s whose descendants include
// leaf dst, or -1 when none exists. It draws exactly what a reservoir
// sample over Down(s) in port order would draw — Intn(c) for c = 2..k over
// the k qualifying ports — so the choice and the stream's state match
// probing every child. When all k ports lead to one child (every down hop
// of an XGFT, whose children's subtrees are disjoint) the child is returned
// without locating its port in Down(s).
func (u *UpDown) NextDown(s int32, dst int, r *rng.Rand) int32 {
	var sc downScratch
	down := u.c.Down(s)
	kids, ok := u.downFrontier(s, len(down), dst, &sc)
	if ok && len(kids) > 0 && kids[0] == kids[len(kids)-1] {
		r.Reservoir(len(kids))
		return kids[0]
	}
	ports := u.locatePorts(down, dst, kids, ok, sc.ports[:0])
	if len(ports) == 0 {
		return -1
	}
	return down[ports[r.Reservoir(len(ports))]]
}

// NextUpPort picks uniformly at random a parent of s that still reaches
// leaf dst within rem-1 further up hops (rem >= 1 is the remaining up-hop
// budget) and returns its index into Clos.Up(s), or -1 when no parent
// qualifies, which cannot happen when rem was derived from MinTurn on an
// unchanged topology. It reservoir-samples the qualifying parents in port
// order without allocating.
func (u *UpDown) NextUpPort(s int32, rem int, dst int, r *rng.Rand) int {
	prev := u.cover[rem-1]
	chosen := -1
	count := 0
	for i, p := range u.c.Up(s) {
		if cov := prev[p]; cov != nil && cov.Get(dst) {
			count++
			if count == 1 || r.Intn(count) == 0 {
				chosen = i
			}
		}
	}
	return chosen
}

// NextUpPortHash is the deterministic counterpart of NextUpPort: among the
// qualifying parents it picks the one indexed by key modulo the candidate
// count. Real fat-tree deployments often use such D-mod-K style hashing of
// the flow identifier instead of per-packet randomisation; the simulator
// exposes both policies.
func (u *UpDown) NextUpPortHash(s int32, rem int, dst int, key uint32) int {
	prev := u.cover[rem-1]
	count := 0
	for _, p := range u.c.Up(s) {
		if cov := prev[p]; cov != nil && cov.Get(dst) {
			count++
		}
	}
	if count == 0 {
		return -1
	}
	want := int(key % uint32(count))
	idx := 0
	for i, p := range u.c.Up(s) {
		if cov := prev[p]; cov != nil && cov.Get(dst) {
			if idx == want {
				return i
			}
			idx++
		}
	}
	return -1
}

// NextDownPortHash deterministically picks among the children leading to
// dst, keyed like NextUpPortHash: the qualifying port at position key
// modulo their count, in port order.
func (u *UpDown) NextDownPortHash(s int32, dst int, key uint32) int {
	var sc downScratch
	ports := u.downPorts(s, dst, &sc)
	if len(ports) == 0 {
		return -1
	}
	return ports[key%uint32(len(ports))]
}

// NextDownPort is NextDown returning the index into Clos.Down(s), or -1.
// It consumes the same draws as NextDown.
func (u *UpDown) NextDownPort(s int32, dst int, r *rng.Rand) int {
	var sc downScratch
	ports := u.downPorts(s, dst, &sc)
	if len(ports) == 0 {
		return -1
	}
	return ports[r.Reservoir(len(ports))]
}

// downScratch is the stack-resident working space of one down-hop
// selection: two frontier buffers and the located ports. Frontiers and
// port lists larger than these arrays spill to the heap through append.
type downScratch struct {
	a, b  [32]int32
	ports [8]int
}

// downPorts returns, in ascending port order, the indices into Down(s) of
// the children whose descendants contain leaf dst, built in sc. Every
// down-hop picker goes through it.
func (u *UpDown) downPorts(s int32, dst int, sc *downScratch) []int {
	down := u.c.Down(s)
	kids, ok := u.downFrontier(s, len(down), dst, sc)
	return u.locatePorts(down, dst, kids, ok, sc.ports[:0])
}

// downFrontier enumerates the children of s whose descendants contain leaf
// dst from the destination side instead of testing every child's
// descendant set. The level-j ancestors of dst are A_1 = {dst} and A_{j+1}
// = the union of Up over A_j, deduplicated; a child of s qualifies exactly
// when it is in A_{lev(s)-1}, and it is listed once per link to s, i.e.
// once per occurrence of s in its up-list. The result is ascending by
// switch id, so each child's parallel links are adjacent.
//
// The walk's cost is the up-list entries it reads. Each step is charged
// before it reads anything, duplicate ancestors included, so a walk that
// cannot pay stops early. When the cost would exceed budget — the length
// of Down(s), what probing every child costs — the walk reports ok = false
// and the caller probes instead. Above level 2 the walk first compares
// budget with walkFloor, so a switch whose children cannot pay even for
// the cheapest walk (a random folded Clos or fat-tree root) probes without
// reading any up-list. On a wide switch over
// narrow up-paths (an XGFT root with thousands of children and a handful of
// dst ancestors) the walk reads a few dozen entries; on a random folded
// Clos root it gives up after a few up-lists.
func (u *UpDown) downFrontier(s int32, budget, dst int, sc *downScratch) (kids []int32, ok bool) {
	c := u.c
	lev := c.LevelOf(s)
	if lev < 2 {
		return nil, true
	}
	if lev >= 3 && u.walkFloor > budget {
		return nil, false
	}
	leaf := c.SwitchID(1, dst)
	if budget -= len(c.Up(leaf)); budget < 0 {
		return nil, false
	}
	cur := append(sc.a[:0], leaf)
	next := sc.b[:0]
	for j := 1; j < lev-1; j++ {
		// Charge the up-lists of A_{j+1} before gathering it.
		for _, a := range cur {
			for _, p := range c.Up(a) {
				if budget -= len(c.Up(p)); budget < 0 {
					return nil, false
				}
			}
		}
		next = next[:0]
		for _, a := range cur {
			next = append(next, c.Up(a)...)
		}
		slices.Sort(next)
		next = slices.Compact(next)
		cur, next = next, cur
	}
	// cur is A_{lev-1}; next is the other buffer and free to overwrite.
	kids = next[:0]
	for _, a := range cur {
		for _, p := range c.Up(a) {
			if p == s {
				kids = append(kids, a)
			}
		}
	}
	return kids, true
}

// locatePorts appends to ports, in ascending order, the positions in down
// (the down-list of some switch) of the children in kids as downFrontier
// returned them. With ok false it falls back to probing each child's
// descendant set for dst. kids lists every qualifying link, so the scan
// stops as soon as it has found that many ports.
func (u *UpDown) locatePorts(down []int32, dst int, kids []int32, ok bool, ports []int) []int {
	if !ok {
		desc := u.cover[0]
		for i, ch := range down {
			if desc[ch].Get(dst) {
				ports = append(ports, i)
			}
		}
		return ports
	}
	if len(kids) == 0 {
		return ports
	}
	want := len(ports) + len(kids)
	lo, hi := kids[0], kids[len(kids)-1]
	for i, ch := range down {
		if ch < lo || ch > hi {
			continue
		}
		if lo != hi {
			if _, found := slices.BinarySearch(kids, ch); !found {
				continue
			}
		}
		ports = append(ports, i)
		if len(ports) == want {
			break
		}
	}
	return ports
}

// Cover returns cover_r(s), the leaves s reaches by exactly r up hops
// followed by downs (cover_0 is s's descendant leaves), or nil when s
// cannot take r up hops. The set is immutable.
func (u *UpDown) Cover(r int, s int32) LeafSet { return u.cover[r][s] }

// Routable reports whether every ordered pair of distinct leaves has an
// up/down path, i.e. whether the network still has the common-ancestor
// property of Theorem 4.2.
func (u *UpDown) Routable() bool {
	return u.UnroutablePairs(1) == 0
}

// UnroutablePairs counts unordered leaf pairs with no up/down path, giving
// up early once limit pairs are found (limit <= 0 means count all). Leaves
// with any full cover set skip the per-pair scan entirely, so on healthy
// routable networks — where the top-turn cover is full for every leaf —
// this is O(N1) regardless of scale.
func (u *UpDown) UnroutablePairs(limit int) int {
	acc := NewBitset(u.n1)
	found := 0
	for i := 0; i < u.n1; i++ {
		s := u.c.SwitchID(1, i)
		fullCover := false
		for r := 1; r < len(u.cover); r++ {
			if cov := u.cover[r][s]; cov != nil && cov.Full() {
				fullCover = true
				break
			}
		}
		if fullCover {
			continue
		}
		acc.Clear()
		for r := 1; r < len(u.cover); r++ {
			if cov := u.cover[r][s]; cov != nil {
				cov.OrInto(acc)
			}
		}
		acc.Set(i)
		if acc.Full(u.n1) {
			continue
		}
		// Count missing leaves with index > i so each pair counts once.
		for j := i + 1; j < u.n1; j++ {
			if !acc.Get(j) {
				found++
				if limit > 0 && found >= limit {
					return found
				}
			}
		}
	}
	return found
}

// Path materialises one random shortest up/down path between leaf indices
// src and dst as a switch-id sequence, or nil when unroutable. Used by tests
// and the CLI; the simulator routes hop by hop instead.
func (u *UpDown) Path(src, dst int, r *rng.Rand) []int32 {
	return u.PathAt(src, dst, u.MinTurn(src, dst), r)
}

// PathAt is Path with the turn level supplied by the caller — typically read
// from a precomputed MinTurnIndex instead of recomputed from the cover sets.
// turn must be MinTurn(src, dst); a negative turn returns nil.
func (u *UpDown) PathAt(src, dst, turn int, r *rng.Rand) []int32 {
	if r == nil {
		r = rng.New(1)
	}
	if turn < 0 {
		return nil
	}
	cur := u.c.SwitchID(1, src)
	path := []int32{cur}
	for rem := turn; rem > 0; rem-- {
		p := u.NextUpPort(cur, rem, dst, r)
		if p < 0 {
			return nil
		}
		cur = u.c.Up(cur)[p]
		path = append(path, cur)
	}
	for u.c.LevelOf(cur) > 1 {
		cur = u.NextDown(cur, dst, r)
		if cur < 0 {
			return nil
		}
		path = append(path, cur)
	}
	return path
}

// AverageShortestUpDown computes the mean up/down shortest path length (in
// switch hops, 2*MinTurn) over sampled leaf pairs. Pairs without a path are
// skipped; the second return value is the routable fraction of sampled
// pairs.
func (u *UpDown) AverageShortestUpDown(samples int, r *rng.Rand) (mean float64, routable float64) {
	if r == nil {
		r = rng.New(1)
	}
	total, ok, attempted := 0.0, 0, 0
	for i := 0; i < samples; i++ {
		a, b := r.Intn(u.n1), r.Intn(u.n1)
		if a == b {
			continue
		}
		attempted++
		t := u.MinTurn(a, b)
		if t < 0 {
			continue
		}
		total += float64(2 * t)
		ok++
	}
	if ok == 0 {
		return 0, 0
	}
	return total / float64(ok), float64(ok) / float64(attempted)
}
