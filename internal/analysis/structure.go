package analysis

import (
	"fmt"

	"rfclos/internal/core"
	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Structure compares the diameter-4 networks on the structural metrics the
// paper discusses outside the big exhibits: exact/sampled diameter, mean
// leaf distance, empirical bisection (heuristic upper bound) against the
// §4.2 Bollobás-style lower bounds, and path diversity (mean leaf-to-leaf
// edge connectivity), which §7 ties to fault tolerance. Each topology is
// sized for the target terminal count by the diameter-4 rules of Table 3,
// and pairSamples random leaf pairs feed the distance and path-diversity
// statistics. It reads Seed only: one stream, labelled to keep it disjoint
// from every other experiment's, draws everything.
func Structure(p Params, target, pairSamples int) (*Report, error) {
	r := rng.At(p.seed(), rng.StringCoord("structure"))
	rep := &Report{
		Title: fmt.Sprintf("Structural comparison at diameter 4, T ≈ %d", target),
		Notes: []string{
			"sw-bisection = heuristic min cut over equal halves of *switches* (upper bound)",
			"§4.2 bound = the paper's Bollobás-style lower bound on the *terminal-halving* cut;",
			"  the two measure different partitions (only for the RRN are they directly comparable)",
			"path diversity = mean max edge-disjoint leaf-to-leaf paths over sampled pairs",
		},
		Header: []string{"topology", "radix", "terminals", "leaf diameter", "mean leaf dist", "path diversity", "sw-bisection", "§4.2 bound"},
	}

	addClos := func(name string, c *topology.Clos, radix int, lb float64) {
		g := c.SwitchGraph()
		n1 := c.LevelSize(1)
		diam, mean := leafDistanceStats(c, g, pairSamples, r)
		div := pathDiversity(g, n1, pairSamples/4, r)
		ub := g.BisectionUpperBound(3, r)
		lbs := "-"
		if lb > 0 {
			lbs = fmt.Sprintf("%.0f", lb)
		}
		rep.AddKeyed(name, Str(name), Int(radix), Int(c.Terminals()), Int(diam),
			Float(mean, "%.2f"), Float(div, "%.2f"), Int(ub), Str(lbs))
	}

	cftR := cftRadixFor(target, 3)
	cft, err := topology.NewCFT(cftR, 3)
	if err != nil {
		return nil, err
	}
	addClos("CFT", cft, cftR, 0)

	rp := rfcParamsFor(target, 3)
	rfc, _, _, err := core.GenerateRoutable(rp, 50, r)
	if err != nil {
		return nil, err
	}
	addClos("RFC", rfc, rp.Radix, core.BisectionLowerBoundRFC(rp.Leaves, rp.Radix, rp.Levels))

	if q, ok := oftOrderFor(target, 3); ok {
		oft, err := topology.NewOFT(q, 3)
		if err != nil {
			return nil, err
		}
		addClos("OFT", oft, 2*(q+1), 0)
	}

	spec := rrnSpecFor(target, 4)
	rrn, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch, r)
	if err != nil {
		return nil, err
	}
	g := rrn.G
	diam := g.DiameterSampled(8, r)
	mean := g.AverageDistance(min(g.N(), 50), r)
	div := pathDiversity(g, g.N(), pairSamples/4, r)
	ub := g.BisectionUpperBound(3, r)
	rep.AddKeyed("RRN", Str("RRN"), Int(spec.Radix()), Int(rrn.Terminals()), Int(diam),
		Float(mean, "%.2f"), Float(div, "%.2f"), Int(ub),
		Float(core.BisectionLowerBoundRRN(g.N(), spec.Degree), "%.0f"))
	// Expander certificate for the random baseline (§2/§4.2): |λ₂| vs the
	// Ramanujan bound 2√(d−1).
	lambda2 := g.SecondEigenvalue(300, r)
	rep.Notes = append(rep.Notes, fmt.Sprintf(
		"RRN spectral check: |λ₂| = %.3f vs Ramanujan bound %.3f (degree %d)",
		lambda2, graph.RamanujanBound(spec.Degree), spec.Degree))
	return rep, nil
}

// leafDistanceStats samples leaf pairs and returns the max and mean
// switch-graph distance between leaves.
func leafDistanceStats(c *topology.Clos, g *graph.Graph, samples int, r *rng.Rand) (int, float64) {
	n1 := c.LevelSize(1)
	scratch := make([]int32, g.N())
	maxD, sum, count := 0, 0.0, 0
	// BFS from a handful of random leaves, read distances to all leaves.
	sources := min(n1, max(4, samples/8))
	for i := 0; i < sources; i++ {
		src := c.SwitchID(1, r.Intn(n1))
		dist := g.BFS(int(src), scratch)
		for leaf := 0; leaf < n1; leaf++ {
			d := int(dist[c.SwitchID(1, leaf)])
			if d < 0 {
				continue
			}
			if d > maxD {
				maxD = d
			}
			if int32(leaf) != src {
				sum += float64(d)
				count++
			}
		}
	}
	if count == 0 {
		return maxD, 0
	}
	return maxD, sum / float64(count)
}

// pathDiversity samples vertex pairs among the first n1 vertices (the
// leaves for a Clos, everything for an RRN) and averages their edge
// connectivity.
func pathDiversity(g *graph.Graph, n1, samples int, r *rng.Rand) float64 {
	if samples <= 0 {
		samples = 20
	}
	sum, count := 0.0, 0
	for i := 0; i < samples; i++ {
		a, b := r.Intn(n1), r.Intn(n1)
		if a == b {
			continue
		}
		sum += float64(g.EdgeConnectivity(a, b))
		count++
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// Adversarial measures the §4.2/§3 claim that RFCs route adversarial
// permutations at much better than 50% of full rate without Valiant
// randomization: it drives the equal-resources CFT and RFC with the shift
// permutation (every packet crosses the bisection) at full offered load and
// reports accepted throughput next to the normalized-bisection prediction.
// An equal-T RRN row (minimal routing, hop-indexed VCs, on the same unified
// engine) extends the comparison to the random baseline. It reads Scale,
// Seed, Cycles and Reps (defaults AdversarialDefaults).
func Adversarial(p Params) (*Report, error) {
	p = p.withDefaults(AdversarialDefaults)
	sc := Scenarios(p.Scale)[0]
	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	rfc, rud, err := buildRoutableRFC(sc.RFC, rng.At(p.seed(), rng.StringCoord("adversarial/topology/RFC")))
	if err != nil {
		return nil, err
	}
	spec := rrnSpecFor(sc.RFC.Terminals(), 4)
	rrn, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch,
		rng.At(p.seed(), rng.StringCoord("adversarial/topology/RRN")))
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Title: fmt.Sprintf("Adversarial shift permutation at full load (%s equal-resources scenario)", p.Scale),
		Notes: []string{
			"shift by T/2: every packet crosses the bisection",
			fmt.Sprintf("§4.2 normalized bisection prediction for this RFC: %.2f",
				core.NormalizedBisectionRFC(sc.RFC.Leaves, sc.RFC.Radix, sc.RFC.Levels)),
			"a dragonfly with Valiant routing would cap at 0.50 (§3); simulated values include head-of-line losses",
			"RRN: equal-T random regular network, minimal routing with 16 hop-indexed VCs",
		},
		Header: []string{"network", "accepted", "latency"},
	}
	rows := []netUnderTest{
		{name: fmt.Sprintf("CFT-R%d", sc.CFT.Radix), c: cft, ud: routing.New(cft)},
		{name: fmt.Sprintf("RFC-R%d", sc.RFC.Radix), c: rfc, ud: rud},
		{name: fmt.Sprintf("RRN-R%d", spec.Radix()), rrn: rrn},
	}
	// Each row is one group with one x, the offered load 1.0.
	groups := make([]gridGroup, len(rows))
	for i, row := range rows {
		groups[i] = gridGroup{name: row.name, xs: []float64{1}}
	}
	sim := p.sim()
	set, err := grid{
		p:      p,
		groups: groups,
		cols:   []string{"accepted", "latency"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("adversarial/" + rows[j.g].name), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			row := rows[j.g]
			res, err := row.simulate(traffic.NewShift(row.terminals(), 0), sim, stream.Uint64(), j.x)
			return []float64{res.AcceptedLoad, res.AvgLatency}, err
		},
	}.collect()
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		rep.AddKeyed(row.name, Str(row.name),
			set.mean(row.name+"/accepted", 1, "%.4f"), set.mean(row.name+"/latency", 1, "%.1f"))
	}
	return rep, nil
}
