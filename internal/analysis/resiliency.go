package analysis

import (
	"fmt"

	"rfclos/internal/core"
	"rfclos/internal/engine"
	"rfclos/internal/graph"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Table3Options parameterises the disconnection experiment.
type Table3Options struct {
	Targets []int // terminal counts; default the paper's 512..8192
	Trials  int   // removal orders averaged per cell (paper: 100)
	// Workers sizes the worker pool the removal trials fan out on; 0 means
	// one per CPU. The table is identical for any worker count.
	Workers int
	Seed    uint64
	// Shard restricts each cell's removal trials to the ones this process
	// owns; partial reports merge byte-identically (see engine.Shard).
	Shard engine.Shard
}

// Table3Disconnect reproduces Table 3: the average percentage of links that
// must be randomly removed to disconnect a diameter-4 (3-level) network of
// each topology, sized per the paper's rules for each terminal target. Each
// cell's removal trials run on the worker pool with per-trial seeds derived
// from the cell coordinates (topology name, terminal target), so the report
// is byte-identical for any opts.Workers.
func Table3Disconnect(opts Table3Options) (*Report, error) {
	if len(opts.Targets) == 0 {
		opts.Targets = []int{512, 1024, 2048, 4096, 8192}
	}
	if opts.Trials <= 0 {
		opts.Trials = 100
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	rep := &Report{
		Title: "Table 3: % of links removed to disconnect a diameter-4 network",
		Notes: []string{
			fmt.Sprintf("%d random removal orders per cell; radix chosen per topology as in §7", opts.Trials),
		},
		Header: []string{"~T", "CFT", "RRN", "RFC", "OFT"},
	}
	// cellSeed keys a cell's trial streams by topology name and target, so
	// no two cells can share a removal order and the table is invariant to
	// row or column reordering.
	cellSeed := func(topo string, target int) uint64 {
		return rng.DeriveSeed(opts.Seed, rng.StringCoord("table3/trials/"+topo), uint64(target))
	}
	genStream := func(topo string, target int) *rng.Rand {
		return rng.At(opts.Seed, rng.StringCoord("table3/gen/"+topo), uint64(target))
	}
	// disconnectCell renders mean(count)/links*100 with the radix suffix,
	// from this shard's trials of the cell.
	disconnectCell := func(g *graph.Graph, topo string, target, radix int) Cell {
		obs := disconnectObs(g, opts.Trials, opts.Workers, cellSeed(topo, target), opts.Shard)
		c := Mean(obs, opts.Trials, "%.1f")
		c.Div = float64(g.M())
		c.Mul = 100
		c.Suffix = fmt.Sprintf("%% (R=%d)", radix)
		return c
	}
	for _, target := range opts.Targets {
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

		p := rfcParamsFor(target, 3)
		rfc, err := core.Generate(p, genStream("RFC", target))
		if err != nil {
			return nil, err
		}
		cells = append(cells, disconnectCell(rfc.SwitchGraph(), "RFC", target, p.Radix))

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

// Fig11Options parameterises the up/down fault-tolerance experiment.
type Fig11Options struct {
	Radix  int // paper: 12
	Trials int // removal orders per point
	// MaxLeavesCap bounds the largest RFC per level (the level-4 maximum
	// is ~5,000 leaves at radix 12, heavy for one machine). 0 = default.
	MaxLeavesCap int
	// Workers sizes the worker pool for RFC generation and removal trials;
	// 0 means one per CPU. The report is identical for any worker count.
	Workers int
	Seed    uint64
	// Shard restricts each point's removal trials to the ones this process
	// owns (networks are still generated everywhere — they fix the row
	// structure); partial reports merge byte-identically.
	Shard engine.Shard
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
// opts.Workers.
func Fig11UpDownFaults(opts Fig11Options) (*Report, error) {
	if opts.Radix <= 0 {
		opts.Radix = 12
	}
	if opts.Trials <= 0 {
		opts.Trials = 5
	}
	if opts.MaxLeavesCap <= 0 {
		opts.MaxLeavesCap = 1200
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}

	// RFC points: fix the parameter grid first (pure arithmetic), then
	// generate every network on the worker pool with per-point streams.
	type rfcSpec struct {
		series string
		p      core.Params
	}
	var specs []rfcSpec
	for _, levels := range []int{2, 3, 4} {
		maxN1 := core.MaxLeaves(opts.Radix, levels)
		if maxN1 > opts.MaxLeavesCap {
			maxN1 = opts.MaxLeavesCap
		}
		for _, frac := range []float64{0.3, 0.5, 0.7, 0.9, 1.0} {
			n1 := int(float64(maxN1)*frac) &^ 1
			if n1 < opts.Radix {
				continue
			}
			p := core.Params{Radix: opts.Radix, Levels: levels, Leaves: n1}
			if p.Validate() != nil {
				continue
			}
			specs = append(specs, rfcSpec{fmt.Sprintf("RFC-%dL", levels), p})
		}
	}
	points, err := engine.Run(len(specs), opts.Workers, func(i int) (fig11Point, error) {
		s := specs[i]
		gen := rng.At(opts.Seed, rng.StringCoord("fig11/gen/"+s.series), uint64(s.p.Leaves))
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
		c, err := topology.NewCFT(opts.Radix, levels)
		if err != nil {
			return nil, err
		}
		points = append(points, fig11Point{"CFT", float64(c.Terminals()), c})
	}
	if q := opts.Radix/2 - 1; q >= 2 {
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
	// order, exactly as the old Series-based path emitted them.
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
		trialSeed := rng.DeriveSeed(opts.Seed, rng.StringCoord("fig11/trial/"+pt.series), uint64(pt.x))
		obs := upDownFaultObs(pt.c, opts.Trials, opts.Workers, trialSeed, opts.Shard)
		rowsBySeries[pt.series] = append(rowsBySeries[pt.series], f11row{pt.x, pt.c.Wires(), obs})
	}
	rep := &Report{
		Title:  fmt.Sprintf("Figure 11: up/down fault tolerance, radix %d", opts.Radix),
		Notes:  []string{"y = fraction of links removable before some leaf pair loses every up/down path"},
		Header: []string{"series", "terminals", "tolerated fraction", "stddev"},
	}
	for _, name := range order {
		for _, row := range rowsBySeries[name] {
			tol := Mean(row.obs, opts.Trials, "%.4f")
			tol.Div = float64(row.wires)
			rep.AddKeyed(fmt.Sprintf("%s@%g", name, row.x),
				Str(name), Float(row.x, "%g"), tol, Float(0, "%.4f"))
		}
	}
	return rep, nil
}

// Fig12Options parameterises the throughput-under-faults experiment.
type Fig12Options struct {
	Scale      Scale
	FaultSteps int // number of fault increments (paper: 10 steps of 300)
	Reps       int
	Sim        simnet.Config
	// Workers sizes the worker pool the (network × pattern × fault step ×
	// rep) grid fans out on; 0 means one per CPU.
	Workers  int
	Seed     uint64
	Progress func(string)
	// Shard restricts execution to the grid jobs this process owns;
	// partial reports merge byte-identically.
	Shard engine.Shard
}

// Fig12FaultThroughput reproduces Figure 12: maximum throughput (accepted
// load at offered 1.0) of the equal-resources CFT and RFC as links fail, for
// the three traffic patterns. Faults are injected in equal increments up to
// ~13% of the wires, the paper's range. Every grid point is an independent
// job — clone the topology, remove the links, rebuild routing, simulate —
// with streams derived from its (network, pattern, faults, rep) coordinates,
// so the report is byte-identical for any opts.Workers.
func Fig12FaultThroughput(opts Fig12Options) (*Report, error) {
	if opts.FaultSteps <= 0 {
		opts.FaultSteps = 10
	}
	if opts.Reps <= 0 {
		opts.Reps = 2
	}
	if opts.Scale == "" {
		opts.Scale = ScaleSmall
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	sc := Scenarios(opts.Scale)[0]

	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	rfc, _, err := buildRoutableRFC(sc.RFC, rng.At(opts.Seed, rng.StringCoord("fig12/topology/RFC")))
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
		groups = append(groups, patternGroups(n.name, patterns, faultCounts(n.c.Wires(), opts.FaultSteps))...)
	}
	np := len(patterns)
	set, err := grid{
		groups: groups,
		reps:   opts.Reps,
		cols:   []string{"accepted"},
		seed:   opts.Seed,
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
			res, err := n.simulate(pat, opts.Sim, stream.Uint64(), 1.0)
			return []float64{res.AcceptedLoad}, err
		},
		workers: opts.Workers, shard: opts.Shard, progress: opts.Progress,
	}.collect()
	if err != nil {
		return nil, err
	}
	return set.report("Figure 12: max throughput under link faults (equal-resources scenario)",
		[]string{fmt.Sprintf("scale=%s; offered load 1.0; faults up to ~13%% of wires", opts.Scale)},
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
