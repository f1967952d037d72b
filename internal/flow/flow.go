// Package flow is the flow-level max-min-fair throughput backend: the
// second engine behind the exhibit registry, for scenario sweeps the
// cycle-accurate simulator cannot reach. Instead of moving phits cycle by
// cycle it resolves every flow of a traffic matrix to one concrete path
// through the built topology and computes the exact max-min-fair rate
// allocation by iterative water-filling over link capacities — the standard
// instrument for comparing randomized vs. structured topologies at scale
// (Jellyfish; "High Throughput Data Center Topology Design").
//
// The model: every directed resource has capacity 1 in units of a
// terminal's injection bandwidth — each terminal's injection and ejection
// link and each direction of every switch-to-switch wire. A flow (src, dst,
// rate) occupies its injection link, the links of one randomly chosen
// shortest path (up/down for folded Clos, ECMP-shortest for RRNs), and the
// destination's ejection link; its demand caps its rate. Modelling the
// terminal links makes incast behave: an 8-into-1 incast group converges to
// 1/8 per flow at the sink's ejection link.
//
// A solve has two phases. Path resolution sorts the flows by destination
// (leaf for a folded Clos, switch for an RRN) and resolves each group on
// one worker, building what depends only on the destination once per
// group: a Clos stamps the destination leaf's ancestors level by level, so
// a hop reads stamps instead of probing cover sets. Each path stays where
// its worker wrote it. Network.Resolve routes one flow alone; it is the
// reference the grouped walk matches link for link on the same stream.
// Water-filling then runs over the links that can saturate only: a link
// whose flows' demands sum to less than 1 by a margin (eps per flow plus
// rounding) can neither saturate nor set the water level, so it is left
// out of the heap, and a kept link leaves the heap for good once its level
// passes its largest demand (see waterfill for both arguments).
// Resolution costs O(Σ path length) plus, per group, the up links of the
// destination's ancestor levels, and per down hop the smaller of the
// switch's down-degree and the up-list entries of the ancestor level
// below; water-filling costs O(Σ path length + (kept links + Σ kept path
// length) · log kept links), where only re-keys of links still at or
// below their largest demand pay the log.
//
// Determinism contract (the same one the cycle backend obeys): path
// resolution fans out over internal/engine workers with each flow drawing
// from its own coordinate-derived stream — rng.At(seed,
// StringCoord("flow/path"), flowIndex), reseeded in place — and
// water-filling is a serial fixed-order iteration, so a Result is a pure
// function of (topology, matrix, seed) and byte-identical at any worker
// count.
package flow

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"rfclos/internal/engine"
	"rfclos/internal/rng"
	"rfclos/internal/traffic"
)

// Network is a topology the solver can route a matrix over: ClosNetwork or
// RRNNetwork, immutable during a Solve. Both resolve a flow to the directed
// link ids of one shortest path.
type Network interface {
	// Terminals returns the terminal count (matrix endpoints are
	// terminals).
	Terminals() int
	// NumLinks returns the size of the directed-link id space.
	NumLinks() int
	// Resolve appends the directed link ids of one path from terminal src
	// to terminal dst (injection link, switch hops, ejection link) to buf
	// and returns the extended slice, or (nil, false) when no path exists.
	// The choice among equal-length paths draws only from r. It is the
	// per-flow reference for the destination-group walk Solve runs.
	Resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool)

	// destGroups returns the number of destination groups: state that
	// depends only on the destination is built once per group rather
	// than once per flow.
	destGroups() int
	// destGroup returns the group of destination terminal dst.
	destGroup(dst int32) int32
	// newWalker returns a walker with its own scratch, for one worker.
	newWalker() groupWalker
}

// Options tunes a Solve call.
type Options struct {
	// Seed drives path selection; every flow derives its own stream from
	// (Seed, "flow/path", flow index).
	Seed uint64
	// Workers sizes the path-resolution pool; 0 means one per CPU. Results
	// are byte-identical for any value. Sweep jobs that already run on a
	// worker pool should pass 1.
	Workers int
}

// Result is the max-min-fair allocation for one (network, matrix) point.
type Result struct {
	// Flows is the matrix size; Unroutable counts flows with no path
	// (allocated rate 0, possible only under faults).
	Flows, Unroutable int
	// Rates holds the per-flow max-min rate, indexed like the matrix.
	Rates []float64
	// Demand and Delivered are the summed offered and allocated rates.
	Demand, Delivered float64
	// Accepted is Delivered normalised by the terminal count — accepted
	// throughput per terminal, the cycle backend's phits/node/cycle
	// analogue.
	Accepted float64
	// MinRate/MeanRate/MaxRate summarise the routed flows' rates.
	MinRate, MeanRate, MaxRate float64
	// Jain is Jain's fairness index over routed flows' rates.
	Jain float64
	// Rounds counts water-filling iterations; SatLinks the links that
	// ended saturated.
	Rounds, SatLinks int
}

// pathCoord is the label of the per-flow path-selection streams.
var pathCoord = rng.StringCoord("flow/path")

// Solve routes every matrix flow over n and water-fills the max-min-fair
// rates. It never mutates n or m.
func Solve(n Network, m []traffic.Demand, opts Options) (*Result, error) {
	t := n.Terminals()
	for i := range m {
		if int(m[i].Src) >= t || int(m[i].Dst) >= t || m[i].Src < 0 || m[i].Dst < 0 {
			return nil, fmt.Errorf("flow: demand %d endpoints (%d,%d) outside %d terminals",
				i, m[i].Src, m[i].Dst, t)
		}
		if r := m[i].Rate; math.IsNaN(r) || math.IsInf(r, 0) {
			return nil, fmt.Errorf("flow: demand %d rate %v is not finite", i, r)
		} else if r < 0 {
			return nil, fmt.Errorf("flow: demand %d rate %v is negative", i, r)
		}
	}
	// Phase 1 (parallel): resolve each flow to its directed link list.
	p, err := resolvePaths(n, m, opts)
	if err != nil {
		return nil, err
	}
	// Phase 2 (serial, fixed order): water-fill.
	res := waterfill(p, m, n.NumLinks())
	res.Accepted = res.Delivered / float64(t)
	return res, nil
}

// flatPaths holds the stored paths in one flat array, in the order path
// resolution wrote them (by destination group, not by flow): path k
// belongs to flow flow[k] and is links[off[k]:off[k+1]]. A flow with no
// stored path, or with an empty one, is not routed.
type flatPaths struct {
	flow, off, links []int32
}

// path returns stored path k.
func (p flatPaths) path(k int) []int32 { return p.links[p.off[k]:p.off[k+1]] }

// groupWalker resolves the flows of one destination group at a time, each
// to exactly the links Network.Resolve gives it on the same stream.
type groupWalker interface {
	// start begins group g.
	start(g int32)
	// resolve is Network.Resolve for a flow whose destination is in the
	// started group.
	resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool)
}

// resolvePaths resolves every flow with positive demand to its links. The
// flows are counting-sorted by destination group and the groups split into
// one contiguous range per worker by flow count. Every flow draws only
// from its own stream, so the paths are the same at any worker count.
func resolvePaths(n Network, m []traffic.Demand, opts Options) (flatPaths, error) {
	// Routed flows by group, ascending flow index within a group.
	ng := n.destGroups()
	gStart := make([]int32, ng+1)
	for _, d := range m {
		if d.Rate > 0 {
			gStart[n.destGroup(d.Dst)+1]++
		}
	}
	for g := 0; g < ng; g++ {
		gStart[g+1] += gStart[g]
	}
	// Each entry carries its flow's endpoints, so the walk reads them in
	// order instead of gathering them from m. Path k is byGroup[k]'s.
	nf := gStart[ng]
	byGroup := make([]groupFlow, nf)
	p := flatPaths{flow: make([]int32, nf), off: make([]int32, nf+1)}
	next := append([]int32(nil), gStart[:ng]...)
	for i, d := range m {
		if d.Rate > 0 {
			g := n.destGroup(d.Dst)
			byGroup[next[g]] = groupFlow{d.Src, d.Dst}
			p.flow[next[g]] = int32(i)
			next[g]++
		}
	}
	// Worker w takes the groups whose flows start in the w-th equal share.
	w := min(engine.Workers(opts.Workers), max(1, len(byGroup)))
	cut := make([]int, w+1)
	for j, g := 1, 0; j < w; j++ {
		for g < ng && int(gStart[g]) < j*len(byGroup)/w {
			g++
		}
		cut[j] = g
	}
	cut[w] = ng
	// Each worker appends its paths to its own chunk and records their
	// ends within it; distinct workers write distinct paths' ends.
	chunks, err := engine.Run(w, w, func(j int) ([]int32, error) {
		lo, hi := gStart[cut[j]], gStart[cut[j+1]]
		links := make([]int32, 0, 8*(hi-lo))
		wk := n.newWalker()
		r := rng.New(0)
		for g := cut[j]; g < cut[j+1]; g++ {
			wk.start(int32(g))
			for k := gStart[g]; k < gStart[g+1]; k++ {
				f := byGroup[k]
				r.Reseed(rng.DeriveSeed(opts.Seed, pathCoord, uint64(p.flow[k])))
				// A failed resolve leaves links, and so the path, as it was.
				if ext, ok := wk.resolve(f.src, f.dst, r, links); ok {
					links = ext
				}
				p.off[k+1] = int32(len(links))
			}
		}
		return links, nil
	})
	if err != nil {
		return flatPaths{}, err
	}
	// Lay the chunks end to end, shifting each one's ends by its base.
	p.links = chunks[0]
	if w > 1 {
		p.links = slices.Concat(chunks...)
		base := int32(0)
		for j, ch := range chunks {
			for k := gStart[cut[j]]; k < gStart[cut[j+1]]; k++ {
				p.off[k+1] += base
			}
			base += int32(len(ch))
		}
	}
	return p, nil
}

// groupFlow is the endpoints of one routed flow in resolvePaths'
// destination order.
type groupFlow struct{ src, dst int32 }

// linkSum is one link's flow count and demand sum, and its kept-link
// number.
type linkSum struct {
	load   float64
	n, kid int32
}

// waterfill computes the exact max-min-fair allocation by bottleneck-freeze
// iteration. All unfrozen flows share one rising water level. A link keeps
// only nact, its unfrozen-flow count, and level, the water level at which
// it runs out of capacity; its residual at the current water is derived as
// (level − water)·nact, clamped at 0.
//
// An indexed min-heap of links keyed by (level, link id) yields the next
// saturation, and the routed flows sorted by demand yield the next flow to
// meet its demand. Each round raises the water to the nearer of the two
// events and freezes the flows whose demand is within eps of it. It then
// pops every link whose level is within eps of the water, keeps those whose
// residual is ≤ eps, and pushes the rest back. The kept links saturate in
// link-id order, each freezing its unfrozen flows at the water level; a
// kept link that earlier freezes this round left with no unfrozen flow is
// skipped without counting. Freezing a flow re-keys each link on its path
// once, or drops it from the heap when its last flow freezes.
//
// Only links that can saturate enter the heap. Take a link whose n flows'
// demands sum to Σd < 1. A frozen flow took at most its demand from it,
// and every unfrozen flow's demand exceeds the water w, so its residual
// is at least 1 − Σ(frozen demands) − nact·w, and its level exceeds the
// least unfrozen demand on it by at least (1 − Σd)/n. The water rises at
// most to the least unfrozen demand, so the link never sets the next water
// level, and once (1 − Σd)/n > eps it is never popped either: leaving it
// out changes no bit of the solve.
//
// The same argument takes a kept link out of the heap for good once its
// level passes the largest demand dmax among its flows. The water never
// passes an unfrozen flow's demand (by more than rounding), and a link's
// level only rises. So while the link still carries an unfrozen flow the
// water stays at or below dmax, the link's Δ = level − water exceeds the
// next demand event's by more than eps, and it is never popped; once it
// carries none it no longer matters. Re-keys test this against exitAt, dmax plus
// a margin of 2·eps and a relative 2⁻⁴⁸ for rounding, and so does heap
// set-up. At load 1 most re-keys hit such links. So a solve costs O(Σ path
// length + (kept links + Σ kept path length) · log kept links).
//
// The set-up passes read the paths in storage order, so the links are read
// front to back. That order reaches three places, none of which it can
// change: the flow counts; the demand sums, which only feed the kept-link
// test, whose rounding margin holds for any summation order; and the order
// in which one round freezes its flows. Those flows all freeze within the
// round (at their demand, or at the water on a saturated link), and each
// re-keys the links on its path by the link's own count and level alone,
// so the order moves no bit. Ties in demand order therefore break by
// storage order; the heap's by link id and the summaries run in flow-index
// order.
//
// Every round freezes at least one flow or link, so the loop terminates;
// all arithmetic is serial in fixed order, so the allocation is
// byte-stable. It expects no stored path, or the empty one, for every
// flow with Rate ≤ 0. It reads p without writing it.
func waterfill(p flatPaths, m []traffic.Demand, nLinks int) *Result {
	res := &Result{Flows: len(m), Rates: make([]float64, len(m))}
	// The solve runs over the stored paths, numbered as p stores them:
	// slot[i] is flow i's path, or -1 when the flow is not routed, and
	// order lists the routed paths in storage order (sorted by demand
	// below).
	slot := make([]int32, len(m))
	for i := range slot {
		slot[i] = -1
	}
	order := make([]int32, 0, len(p.flow))
	for k, f := range p.flow {
		if p.off[k] < p.off[k+1] {
			slot[f] = int32(k)
			order = append(order, int32(k))
		}
	}
	// Each path's demand.
	rate := make([]float64, len(p.flow))
	for i := range m {
		res.Demand += m[i].Rate
		if k := slot[i]; k >= 0 {
			rate[k] = m[i].Rate
		} else if m[i].Rate > 0 {
			res.Unroutable++
		}
	}
	// Per-link flow counts and demand sums, summed in storage order. The
	// sums feed only the test below, whose rounding margin holds for any
	// summation order.
	sums := make([]linkSum, nLinks)
	for k, d := range rate {
		for _, l := range p.path(k) {
			sums[l].n++
			sums[l].load += d
		}
	}
	// Number the links that can saturate in link-id order: kid is a link's
	// index among them, or -1. A link is left out when 1 − Σd exceeds a
	// margin of eps·n, which keeps it out of every pop, plus n²·2⁻⁴⁴ for
	// rounding: the demand sum rounds by under n·2⁻⁵³, and each of the n
	// re-keys of its level by under n·2⁻⁵⁰ in residual, so 2⁻⁴⁴ leaves 64×
	// room.
	const eps = 1e-12
	nKept := int32(0)
	for l := range sums {
		sm := &sums[l]
		sm.kid = -1
		if fn := float64(sm.n); sm.n > 0 && sm.load >= 1-(eps*fn+fn*fn*0x1p-44) {
			sm.kid = nKept
			nKept++
		}
	}
	// Each kept link's flow count starts its nact and sizes its run of
	// lfStart, the reverse kept-link → paths index.
	links := make([]keptLink, nKept)
	lfStart := make([]int32, nKept+1)
	for _, sm := range sums {
		if c := sm.kid; c >= 0 {
			links[c].nact = sm.n
			lfStart[c+1] = lfStart[c] + sm.n
		}
	}
	// Each path's kept links (CSR), and the reverse index's entries (by
	// counting sort: deterministic order).
	kOff := make([]int32, len(rate)+1)
	kLinks := make([]int32, 0, lfStart[nKept])
	for k := range rate {
		for _, l := range p.path(k) {
			if c := sums[l].kid; c >= 0 {
				kLinks = append(kLinks, c)
			}
		}
		kOff[k+1] = int32(len(kLinks))
	}
	kept := func(k int32) []int32 { return kLinks[kOff[k]:kOff[k+1]] }
	// A kept link's exitAt is its largest demand plus the margin the doc
	// comment derives.
	lfFlow := make([]int32, len(kLinks))
	next := append([]int32(nil), lfStart[:nKept]...)
	for k, d := range rate {
		for _, c := range kept(int32(k)) {
			lfFlow[next[c]] = int32(k)
			next[c]++
			links[c].exitAt = max(links[c].exitAt, d)
		}
	}
	// Every kept link starts with residual 1 at water 0. Kept links are
	// numbered in link-id order, so keying by number breaks ties as link
	// ids would.
	h := newLinkHeap(links)
	for c := range links {
		kl := &links[c]
		kl.exitAt += kl.exitAt*0x1p-48 + 2*eps
		if level := 1 / float64(kl.nact); level <= kl.exitAt {
			h.add(heapEntry{level, int32(c)})
		}
	}
	h.init()
	if !slices.IsSortedFunc(order, func(a, b int32) int { return cmp.Compare(rate[a], rate[b]) }) {
		sortByDemand(order, rate)
	}
	// From here on rate[k] is path k's demand until it freezes, then its
	// allocated rate.
	frozen := make([]bool, len(rate))
	unfrozen := len(order)
	water := 0.0
	op := 0 // next demand-freeze candidate in order
	freeze := func(k int32, r float64) {
		frozen[k] = true
		rate[k] = r
		unfrozen--
		for _, l := range kept(k) {
			kl := &links[l]
			n := kl.nact
			kl.nact = n - 1
			switch {
			case kl.pos < 0: // saturating this round, or out of the heap
			case n == 1:
				h.remove(l)
			default:
				resid := max(0, (h.e[kl.pos].level-water)*float64(n))
				if level := water + resid/float64(n-1); level > kl.exitAt {
					h.remove(l)
				} else {
					h.set(l, level)
				}
			}
		}
	}
	var sat []int32
	var back []heapEntry
	for unfrozen > 0 {
		// Nearest demand event.
		for op < len(order) && frozen[order[op]] {
			op++
		}
		deltaD := math.Inf(1)
		if op < len(order) {
			deltaD = rate[order[op]] - water
		}
		// Nearest link-saturation event.
		deltaL := math.Inf(1)
		if h.len() > 0 {
			deltaL = h.top().level - water
		}
		delta := math.Min(deltaL, deltaD)
		if math.IsInf(delta, 1) {
			break // no constraints left (cannot happen: an unfrozen flow bounds the water)
		}
		if delta > 0 {
			water += delta
		}
		// Freeze demand-satisfied flows.
		for op < len(order) {
			k := order[op]
			if frozen[k] {
				op++
				continue
			}
			if rate[k]-water > eps {
				break
			}
			freeze(k, rate[k])
			op++
		}
		// Pop the links that may have saturated; keep the saturated ones.
		sat, back = sat[:0], back[:0]
		for h.len() > 0 && h.top().level-water <= eps {
			e := h.pop()
			if (e.level-water)*float64(links[e.id].nact) <= eps {
				sat = append(sat, e.id)
			} else {
				back = append(back, e)
			}
		}
		for _, e := range back {
			h.push(e)
		}
		// Freeze flows on saturated links, in link-id order.
		slices.Sort(sat)
		for _, l := range sat {
			if links[l].nact == 0 {
				continue
			}
			for j := lfStart[l]; j < lfStart[l+1]; j++ {
				if k := lfFlow[j]; !frozen[k] {
					freeze(k, water)
				}
			}
			res.SatLinks++
		}
		res.Rounds++
	}
	for k, f := range p.flow {
		if frozen[k] {
			res.Rates[f] = rate[k]
		}
	}
	// Summaries over routed flows, in index order.
	routed := 0
	var sum, sumSq float64
	res.MinRate = math.Inf(1)
	for i := range m {
		if slot[i] < 0 {
			continue
		}
		r := res.Rates[i]
		routed++
		sum += r
		sumSq += r * r
		if r < res.MinRate {
			res.MinRate = r
		}
		if r > res.MaxRate {
			res.MaxRate = r
		}
	}
	res.Delivered = sum
	if routed > 0 {
		res.MeanRate = sum / float64(routed)
		if sumSq > 0 {
			res.Jain = sum * sum / (float64(routed) * sumSq)
		}
	} else {
		res.MinRate = 0
	}
	return res
}

// sortByDemand orders order by ascending rate[order[j]], stably: equal
// demands keep their order.
func sortByDemand(order []int32, rate []float64) {
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(rate[a], rate[b]) })
}
