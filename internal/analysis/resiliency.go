package analysis

import (
	"fmt"

	"rfclos/internal/core"
	"rfclos/internal/engine"
	"rfclos/internal/graph"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Table3Disconnect reproduces Table 3: the average percentage of links that
// must be randomly removed to disconnect a diameter-4 (3-level) network of
// each topology, sized per the paper's rules for each terminal target. It
// reads Seed and Trials (removal orders averaged per cell, default
// Table3Defaults). Each cell's removal trials run on the worker pool with
// per-trial seeds derived from the cell coordinates (topology name,
// terminal target), so the report is byte-identical for any p.Workers.
func Table3Disconnect(p Params, targets []int) (*Report, error) {
	p = p.WithDefaults(Table3Defaults)
	rep := &Report{
		Title: "Table 3: % of links removed to disconnect a diameter-4 network",
		Notes: []string{
			fmt.Sprintf("%d random removal orders per cell; radix chosen per topology as in §7", p.Trials),
		},
		Header: []string{"~T", "CFT", "RRN", "RFC", "OFT"},
	}
	// cellSeed keys a cell's trial streams by topology name and target, so
	// no two cells can share a removal order and the table is invariant to
	// row or column reordering.
	cellSeed := func(topo string, target int) uint64 {
		return rng.DeriveSeed(p.seed(), rng.StringCoord("table3/trials/"+topo), uint64(target))
	}
	genStream := func(topo string, target int) *rng.Rand {
		return rng.At(p.seed(), rng.StringCoord("table3/gen/"+topo), uint64(target))
	}
	// disconnectCell renders mean(count)/links*100 with the radix suffix,
	// from this shard's trials of the cell.
	disconnectCell := func(g *graph.Graph, topo string, target, radix int) Cell {
		// The measure cannot fail, so neither can trialObs.
		obs, _ := trialObs(p, p.Trials, cellSeed(topo, target),
			func(r *rng.Rand) (float64, error) { return float64(FaultsToDisconnect(g, r)), nil })
		c := Mean(obs, p.Trials, "%.1f")
		c.Div = float64(g.M())
		c.Mul = 100
		c.Suffix = fmt.Sprintf("%% (R=%d)", radix)
		return c
	}
	for _, target := range targets {
		cells := []Cell{Int(target)}

		cftR := cftRadixFor(target, 3)
		cft, err := topology.NewCFT(cftR, 3)
		if err != nil {
			return nil, err
		}
		cells = append(cells, disconnectCell(cft.SwitchGraph(), "CFT", target, cftR))

		spec := rrnSpecFor(target, 4)
		rrn, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch, genStream("RRN", target))
		if err != nil {
			return nil, err
		}
		cells = append(cells, disconnectCell(rrn.G, "RRN", target, spec.Radix()))

		rp := rfcParamsFor(target, 3)
		rfc, err := core.Generate(rp, genStream("RFC", target))
		if err != nil {
			return nil, err
		}
		cells = append(cells, disconnectCell(rfc.SwitchGraph(), "RFC", target, rp.Radix))

		if q, ok := oftOrderFor(target, 3); ok {
			oft, err := topology.NewOFT(q, 3)
			if err != nil {
				return nil, err
			}
			cells = append(cells, disconnectCell(oft.SwitchGraph(), "OFT", target, 2*(q+1)))
		} else {
			cells = append(cells, Str("-"))
		}
		rep.AddKeyed(fmt.Sprintf("T=%d", target), cells...)
	}
	return rep, nil
}

// fig11Point is one network point of the Figure 11 sweep: a series label,
// its x coordinate (terminal count) and the network, nil when generation
// failed (near/below threshold: 0 tolerance by definition, point skipped).
type fig11Point struct {
	series string
	x      float64
	c      *topology.Clos
}

// Fig11UpDownFaults reproduces Figure 11: the fraction of random link
// failures tolerated while preserving up/down routing, for RFCs of 2, 3 and
// 4 levels across sizes, with the CFT and OFT single points of the same
// radix. The expensive RFC generations fan out over the worker pool, as do
// each point's removal trials; generation and trial streams are derived
// from the point coordinates, so the report is byte-identical for any
// p.Workers. It reads Seed and Trials (removal orders per point, default
// Fig11Defaults). maxLeaves bounds the largest RFC per level (the level-4
// maximum is ~5,000 leaves at radix 12, heavy for one machine). A shard
// still generates every network, since they fix the row structure, and
// runs only the removal trials it owns.
func Fig11UpDownFaults(p Params, radix, maxLeaves int) (*Report, error) {
	p = p.WithDefaults(Fig11Defaults)

	// RFC points: fix the parameter grid first (pure arithmetic), then
	// generate every network on the worker pool with per-point streams.
	type rfcSpec struct {
		series string
		p      core.Params
	}
	var specs []rfcSpec
	for _, levels := range []int{2, 3, 4} {
		maxN1 := min(core.MaxLeaves(radix, levels), maxLeaves)
		for _, frac := range []float64{0.3, 0.5, 0.7, 0.9, 1.0} {
			n1 := int(float64(maxN1)*frac) &^ 1
			if n1 < radix {
				continue
			}
			rp := core.Params{Radix: radix, Levels: levels, Leaves: n1}
			if rp.Validate() != nil {
				continue
			}
			specs = append(specs, rfcSpec{fmt.Sprintf("RFC-%dL", levels), rp})
		}
	}
	points, err := engine.Run(len(specs), p.Workers, func(i int) (fig11Point, error) {
		s := specs[i]
		gen := rng.At(p.seed(), rng.StringCoord("fig11/gen/"+s.series), uint64(s.p.Leaves))
		c, _, _, err := core.GenerateRoutable(s.p, 50, gen)
		if err != nil {
			return fig11Point{series: s.series}, nil // skipped point, not an error
		}
		return fig11Point{series: s.series, x: float64(s.p.Terminals()), c: c}, nil
	})
	if err != nil {
		return nil, err
	}

	// CFT and OFT reference points are deterministic builds.
	for _, levels := range []int{2, 3, 4} {
		c, err := topology.NewCFT(radix, levels)
		if err != nil {
			return nil, err
		}
		points = append(points, fig11Point{"CFT", float64(c.Terminals()), c})
	}
	if q := radix/2 - 1; q >= 2 {
		for _, levels := range []int{2, 3} {
			c, err := topology.NewOFT(q, levels)
			if err != nil {
				break
			}
			if c.Terminals() > 50000 {
				break
			}
			points = append(points, fig11Point{"OFT", float64(c.Terminals()), c})
		}
	}

	// Measure tolerance per point; the trials within a point fan out with
	// seeds keyed by (series, terminal count, trial), this shard running
	// only the trials it owns. Rows are grouped by series in first-seen
	// order.
	type f11row struct {
		x     float64
		wires int
		obs   []metrics.Obs
	}
	var order []string
	rowsBySeries := map[string][]f11row{}
	for _, pt := range points {
		if pt.c == nil {
			continue
		}
		if _, ok := rowsBySeries[pt.series]; !ok {
			order = append(order, pt.series)
		}
		trialSeed := rng.DeriveSeed(p.seed(), rng.StringCoord("fig11/trial/"+pt.series), uint64(pt.x))
		// The measure cannot fail, so neither can trialObs.
		obs, _ := trialObs(p, p.Trials, trialSeed,
			func(r *rng.Rand) (float64, error) { return float64(FaultsUntilUpDownLost(pt.c, r)), nil })
		rowsBySeries[pt.series] = append(rowsBySeries[pt.series], f11row{pt.x, pt.c.Wires(), obs})
	}
	rep := &Report{
		Title:  fmt.Sprintf("Figure 11: up/down fault tolerance, radix %d", radix),
		Notes:  []string{"y = fraction of links removable before some leaf pair loses every up/down path"},
		Header: []string{"series", "terminals", "tolerated fraction", "stddev"},
	}
	for _, name := range order {
		for _, row := range rowsBySeries[name] {
			tol := Mean(row.obs, p.Trials, "%.4f")
			tol.Div = float64(row.wires)
			sd := Std(row.obs, p.Trials, "%.4f")
			sd.Div = float64(row.wires)
			rep.AddKeyed(fmt.Sprintf("%s@%g", name, row.x),
				Str(name), Float(row.x, "%g"), tol, sd)
		}
	}
	return rep, nil
}

// Fig12FaultThroughput reproduces Figure 12: maximum throughput (accepted
// load at offered 1.0) of the equal-resources CFT and RFC as links fail, for
// the three traffic patterns. The fault count grows from 0 in the given
// number of equal steps up to ~13% of the wires, the paper's range (10
// steps of 300 at paper scale). It reads Scale, Seed, Cycles and Reps
// (defaults Fig12Defaults). Every grid point is an independent job —
// clone the topology, remove the links, rebuild routing, simulate — with
// streams derived from its (network, pattern, faults, rep) coordinates, so
// the report is byte-identical for any p.Workers.
func Fig12FaultThroughput(p Params, steps int) (*Report, error) {
	p = p.WithDefaults(Fig12Defaults)
	sc := Scenarios(p.Scale)[0]

	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	rfc, _, err := buildRoutableRFC(sc.RFC, rng.At(p.seed(), rng.StringCoord("fig12/topology/RFC")))
	if err != nil {
		return nil, err
	}
	nets := []netUnderTest{
		{name: fmt.Sprintf("CFT-R%d", sc.CFT.Radix), c: cft},
		{name: fmt.Sprintf("RFC-R%d", sc.RFC.Radix), c: rfc},
	}
	patterns := traffic.Names()
	var groups []gridGroup
	for _, n := range nets {
		groups = append(groups, patternGroups(n.name, patterns, faultCounts(n.c.Wires(), steps))...)
	}
	np := len(patterns)
	sim := p.sim()
	set, err := grid{
		p:      p,
		groups: groups,
		cols:   []string{"accepted"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("fig12/" + nets[j.g/np].name), rng.StringCoord(patterns[j.g%np]),
				uint64(j.x), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			faulty := nets[j.g/np].c.Clone()
			RemoveRandomLinks(faulty, int(j.x), stream)
			pat, err := traffic.New(patterns[j.g%np], faulty.Terminals(), stream)
			if err != nil {
				return nil, err
			}
			n := netUnderTest{c: faulty, ud: routing.New(faulty)}
			res, err := n.simulate(pat, sim, stream.Uint64(), 1.0)
			return []float64{res.AcceptedLoad}, err
		},
	}.collect()
	if err != nil {
		return nil, err
	}
	return set.report("Figure 12: max throughput under link faults (equal-resources scenario)",
		[]string{fmt.Sprintf("scale=%s; offered load 1.0; faults up to ~13%% of wires", p.Scale)},
		"faulty links", "accepted load"), nil
}

// faultCounts returns the x values of a fault sweep: steps+1 equal
// increments from 0 up to ~13% of the network's wires.
func faultCounts(wires, steps int) []float64 {
	step := wires * 13 / 100 / steps
	if step == 0 {
		step = 1
	}
	xs := make([]float64, steps+1)
	for f := range xs {
		xs[f] = float64(f * step)
	}
	return xs
}
