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
// group: a Clos marks the destination leaf's ancestors level by level, so
// a hop reads marks instead of probing cover sets. Network.Resolve routes
// one flow alone; it is the reference the grouped walk matches link for
// link on the same stream. Water-filling then runs over the links that can
// saturate only: a link whose flows' demands sum to less than 1 by a
// margin (eps per flow plus rounding) can neither saturate nor set the
// water level, so it is left out of the heap (see waterfill for the
// argument). Resolution costs O(Σ path length) plus the marking, O(links
// between the destination's ancestor levels) per group; water-filling
// O(Σ path length + (kept links + Σ kept path length) · log kept links).
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

// flatPaths holds every flow's path in two flat arrays: flow i's directed
// link ids are links[start[i]:start[i+1]]. A flow with zero demand, or with
// no path, has an empty path and is not routed.
type flatPaths struct {
	start, links []int32
}

// of returns flow i's path.
func (p flatPaths) of(i int) []int32 { return p.links[p.start[i]:p.start[i+1]] }

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
	// order instead of gathering them from m.
	byGroup := make([]groupFlow, gStart[ng])
	next := append([]int32(nil), gStart[:ng]...)
	for i, d := range m {
		if d.Rate > 0 {
			g := n.destGroup(d.Dst)
			byGroup[next[g]] = groupFlow{int32(i), d.Src, d.Dst}
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
	type chunk struct{ ends, links []int32 }
	chunks, err := engine.Run(w, w, func(j int) (chunk, error) {
		lo, hi := gStart[cut[j]], gStart[cut[j+1]]
		ch := chunk{ends: make([]int32, 0, hi-lo), links: make([]int32, 0, 8*(hi-lo))}
		wk := n.newWalker()
		r := rng.New(0)
		for g := cut[j]; g < cut[j+1]; g++ {
			wk.start(int32(g))
			for _, f := range byGroup[gStart[g]:gStart[g+1]] {
				r.Reseed(rng.DeriveSeed(opts.Seed, pathCoord, uint64(f.i)))
				// A failed resolve leaves ch.links, and so the path, as it was.
				if ext, ok := wk.resolve(f.src, f.dst, r, ch.links); ok {
					ch.links = ext
				}
				ch.ends = append(ch.ends, int32(len(ch.links)))
			}
		}
		return ch, nil
	})
	if err != nil {
		return flatPaths{}, err
	}
	// Write the paths back in flow-index order.
	p := flatPaths{start: make([]int32, len(m)+1)}
	for j, ch := range chunks {
		from := int32(0)
		for k, f := range byGroup[gStart[cut[j]]:gStart[cut[j+1]]] {
			p.start[f.i+1] = ch.ends[k] - from
			from = ch.ends[k]
		}
	}
	for i := range m {
		p.start[i+1] += p.start[i]
	}
	p.links = make([]int32, p.start[len(m)])
	for j, ch := range chunks {
		from := int32(0)
		for k, f := range byGroup[gStart[cut[j]]:gStart[cut[j+1]]] {
			copy(p.links[p.start[f.i]:], ch.links[from:ch.ends[k]])
			from = ch.ends[k]
		}
	}
	return p, nil
}

// groupFlow is one routed flow in resolvePaths' destination order.
type groupFlow struct{ i, src, dst int32 }

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
// out changes no bit of the solve. So a solve costs O(Σ path length +
// (kept links + Σ kept path length) · log kept links).
//
// Every round freezes at least one flow or link, so the loop terminates;
// all arithmetic is serial in fixed order, so the allocation is
// byte-stable. It expects the empty path for every flow with Rate ≤ 0.
func waterfill(p flatPaths, m []traffic.Demand, nLinks int) *Result {
	res := &Result{Flows: len(m), Rates: make([]float64, len(m))}
	// Per-link flow counts and demand sums (load), and the routed flows in
	// index order (sorted by demand below).
	cnt := make([]int32, nLinks)
	load := make([]float64, nLinks)
	order := make([]int32, 0, len(m))
	for i := range m {
		res.Demand += m[i].Rate
		fp := p.of(i)
		if len(fp) == 0 {
			if m[i].Rate > 0 {
				res.Unroutable++
			}
			continue
		}
		order = append(order, int32(i))
		for _, l := range fp {
			cnt[l]++
			load[l] += m[i].Rate
		}
	}
	// Number the links that can saturate in link-id order: kid[l] is link
	// l's index among them, or -1. A link is left out when 1 − Σd exceeds
	// a margin of eps·n, which keeps it out of every pop, plus n²·2⁻⁴⁴ for
	// rounding: the demand sum rounds by under n·2⁻⁵³, and each of the n
	// re-keys of its level by under n·2⁻⁵⁰ in residual, so 2⁻⁴⁴ leaves 64×
	// room.
	const eps = 1e-12
	kid := make([]int32, nLinks)
	nKept := int32(0)
	for l, n := range cnt {
		kid[l] = -1
		if fn := float64(n); n > 0 && load[l] >= 1-(eps*fn+fn*fn*0x1p-44) {
			kid[l] = nKept
			nKept++
		}
	}
	// Each routed flow's kept links (CSR), and the reverse kept-link →
	// flows index (by counting sort: deterministic order).
	kStart := make([]int32, len(m)+1)
	kLinks := make([]int32, 0, len(p.links))
	nact := make([]int32, nKept)
	for i := range m {
		for _, l := range p.of(i) {
			if k := kid[l]; k >= 0 {
				kLinks = append(kLinks, k)
				nact[k]++
			}
		}
		kStart[i+1] = int32(len(kLinks))
	}
	kept := func(f int32) []int32 { return kLinks[kStart[f]:kStart[f+1]] }
	lfStart := make([]int32, nKept+1)
	for k := int32(0); k < nKept; k++ {
		lfStart[k+1] = lfStart[k] + nact[k]
	}
	lfFlow := make([]int32, len(kLinks))
	next := append([]int32(nil), lfStart[:nKept]...)
	for _, f := range order {
		for _, k := range kept(f) {
			lfFlow[next[k]] = f
			next[k]++
		}
	}
	// Every kept link starts with residual 1 at water 0. Kept links are
	// numbered in link-id order, so keying by number breaks ties as link
	// ids would.
	level := make([]float64, nKept)
	h := newLinkHeap(level)
	for k, n := range nact {
		level[k] = 1 / float64(n)
		h.add(int32(k))
	}
	h.init()
	if !slices.IsSortedFunc(order, func(a, b int32) int { return cmp.Compare(m[a].Rate, m[b].Rate) }) {
		sortByDemand(order, m)
	}
	frozen := make([]bool, len(m))
	unfrozen := len(order)
	water := 0.0
	op := 0 // next demand-freeze candidate in order
	freeze := func(f int32, rate float64) {
		frozen[f] = true
		res.Rates[f] = rate
		unfrozen--
		for _, l := range kept(f) {
			n := nact[l]
			nact[l] = n - 1
			switch {
			case !h.has(l): // saturating this round
			case n == 1:
				h.remove(l)
			default:
				resid := max(0, (level[l]-water)*float64(n))
				level[l] = water + resid/float64(n-1)
				h.fix(l)
			}
		}
	}
	var sat, back []int32
	for unfrozen > 0 {
		// Nearest demand event.
		for op < len(order) && frozen[order[op]] {
			op++
		}
		deltaD := math.Inf(1)
		if op < len(order) {
			deltaD = m[order[op]].Rate - water
		}
		// Nearest link-saturation event.
		deltaL := math.Inf(1)
		if h.len() > 0 {
			deltaL = level[h.top()] - water
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
			f := order[op]
			if frozen[f] {
				op++
				continue
			}
			if m[f].Rate-water > eps {
				break
			}
			freeze(f, m[f].Rate)
			op++
		}
		// Pop the links that may have saturated; keep the saturated ones.
		sat, back = sat[:0], back[:0]
		for h.len() > 0 && level[h.top()]-water <= eps {
			l := h.pop()
			if (level[l]-water)*float64(nact[l]) <= eps {
				sat = append(sat, l)
			} else {
				back = append(back, l)
			}
		}
		for _, l := range back {
			h.push(l)
		}
		// Freeze flows on saturated links, in link-id order.
		slices.Sort(sat)
		for _, l := range sat {
			if nact[l] == 0 {
				continue
			}
			for j := lfStart[l]; j < lfStart[l+1]; j++ {
				if f := lfFlow[j]; !frozen[f] {
					freeze(f, water)
				}
			}
			res.SatLinks++
		}
		res.Rounds++
	}
	// Summaries over routed flows, in index order.
	routed := 0
	var sum, sumSq float64
	res.MinRate = math.Inf(1)
	for i := range m {
		if len(p.of(i)) == 0 {
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

// sortByDemand orders flow indices by ascending demand, index-stable for
// equal demands, with an explicit merge sort (no reflection, no
// allocation surprises; determinism is the point).
func sortByDemand(order []int32, m []traffic.Demand) {
	if len(order) < 2 {
		return
	}
	buf := make([]int32, len(order))
	var rec func(lo, hi int)
	rec = func(lo, hi int) {
		if hi-lo < 2 {
			return
		}
		mid := (lo + hi) / 2
		rec(lo, mid)
		rec(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			a, b := order[i], order[j]
			if m[a].Rate < m[b].Rate || (m[a].Rate == m[b].Rate && a <= b) {
				buf[k] = a
				i++
			} else {
				buf[k] = b
				j++
			}
			k++
		}
		copy(buf[k:], order[i:mid])
		copy(buf[k+mid-i:hi], order[j:hi])
		copy(order[lo:hi], buf[lo:hi])
	}
	rec(0, len(order))
}
