package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/core"
	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// flowNet couples a named network with its flow-level routing adapter.
type flowNet struct {
	name  string
	net   flow.Network
	terms int
}

// runFlowGrid executes the (network × pattern × load × rep) grid on the
// worker pool and aggregates it into a (series, load, value, stddev) report
// with three series per (network, pattern) group: accepted throughput per
// terminal, the minimum flow rate (the starved-flow floor the mean hides)
// and Jain's fairness index — the flow backend's new report columns.
func runFlowGrid(title string, notes []string, nets []flowNet, p Params, patterns []string) (*Report, error) {
	set, err := flowGrid(nets, p, patterns).collect()
	if err != nil {
		return nil, err
	}
	notes = append(notes,
		"flow-level backend: max-min-fair water-filling over unit-capacity links, one random shortest path per flow",
		"accepted in delivered rate per terminal; minrate is the worst flow's rate; jain is Jain's fairness index")
	return set.report(title, notes, "offered load", "value"), nil
}

// flowGrid is runFlowGrid's job grid: group g is network g/np under
// patterns[g%np], for np patterns, over p's loads (default 0.1..1.0) with
// p's reps (default 3).
func flowGrid(nets []flowNet, p Params, patterns []string) grid {
	var groups []gridGroup
	for _, n := range nets {
		groups = append(groups, patternGroups(n.name, patterns, p.loads(sweepLoads))...)
	}
	np := len(patterns)
	return grid{
		p:           p,
		groups:      groups,
		defaultReps: 3,
		cols:        []string{"accepted", "minrate", "jain"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("flow/" + nets[j.g/np].name), rng.StringCoord(patterns[j.g%np]),
				math.Float64bits(j.x), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			res, err := solveFlowJob(nets[j.g/np], patterns[j.g%np], j.x, stream)
			if err != nil {
				return nil, err
			}
			return []float64{res.Accepted, res.MinRate, res.Jain}, nil
		},
	}
}

// solveFlowJob draws one job's matrix from its stream, scales it to load
// and solves it on n.
func solveFlowJob(n flowNet, pattern string, load float64, stream *rng.Rand) (*flow.Result, error) {
	m, err := traffic.NewMatrix(pattern, n.terms, stream)
	if err != nil {
		return nil, err
	}
	return flow.Solve(n.net, traffic.ScaleMatrix(m, load), flow.Options{Seed: stream.Uint64(), Workers: 1})
}

// FlowScenarioSweep is ScenarioSweep on the flow-level backend: the same
// scenario networks (identical generation streams, so the topologies match
// the cycle backend's run for run), each matrix pattern swept across
// offered loads with per-flow max-min rates instead of cycle simulation. It
// reads Seed, Reps (default 3), Loads (default 0.1..1.0) and Patterns
// (default the three §6 packet patterns); there is no cycle count, each
// grid point is one exact water-filling solve.
func FlowScenarioSweep(sc Scenario, p Params) (*Report, error) {
	nets, err := buildScenarioNets(sc, p.seed())
	if err != nil {
		return nil, err
	}
	fnets := make([]flowNet, len(nets))
	for i, n := range nets {
		fnets[i] = flowNet{name: n.name, net: flow.NewClos(n.c, n.ud, nil), terms: n.c.Terminals()}
	}
	notes := []string{
		fmt.Sprintf("scenario %s: CFT T=%d, RFC T=%d", sc.Name, sc.CFT.Terminals(), sc.RFC.Terminals()),
	}
	return runFlowGrid("Flow backend: max-min throughput, scenario "+sc.Name, notes, fnets, p, p.patterns(traffic.Names()))
}

// flowScaleSpec sizes the 10× comparison: the equal-resources scenario's
// terminal count scaled ~10× at the same radix, carried by an XGFT (a
// 4-level CFT with spare leaf ports), a 3-level (paper scale; 4-level at
// the reduced radix) RFC and an equal-terminal RRN with a Jellyfish-style
// Δ:tps ≈ 3:1 port split.
type flowScaleSpec struct {
	xgft                 CFTSpec
	rfc                  core.Params
	rrnN, rrnDeg, rrnTps int
}

func flowScaleFor(scale Scale) flowScaleSpec {
	if scale == ScalePaper {
		// 116,640 terminals: 10× the 11K-equal-resources scenario.
		return flowScaleSpec{
			xgft: CFTSpec{Radix: 36, Levels: 4, TermsPerLeaf: 10},
			rfc:  core.Params{Radix: 36, Levels: 3, Leaves: 6480},
			rrnN: 12960, rrnDeg: 27, rrnTps: 9,
		}
	}
	// 8,192 terminals: 8× the 1K scenario (radix 16 caps the leaf at 8
	// terminals, so the small analogue lands at 8× rather than 10×).
	return flowScaleSpec{
		xgft: CFTSpec{Radix: 16, Levels: 4, TermsPerLeaf: 8},
		rfc:  core.Params{Radix: 16, Levels: 4, Leaves: 1024},
		rrnN: 2048, rrnDeg: 12, rrnTps: 4,
	}
}

// FlowScale runs the flow-only headline comparison the cycle engine cannot
// reach: RFC vs RRN vs XGFT at ~10× the equal-resources scenario's size
// (116,640 terminals at paper scale). All three networks carry identical
// terminal counts. It reads Scale and FlowScenarioSweep's settings, but at
// 10× scale the default patterns are the cheap pair that separates the
// topologies (uniform, storm).
func FlowScale(p Params) (*Report, error) {
	nets, notes, err := flowScaleNets(p)
	if err != nil {
		return nil, err
	}
	title := fmt.Sprintf("Flow backend: RFC vs RRN vs XGFT at 10× scale (%s)", p.scale())
	return runFlowGrid(title, notes, nets, p, p.patterns([]string{"uniform", "storm"}))
}

// flowScaleNets builds FlowScale's three networks and its note line.
func flowScaleNets(p Params) ([]flowNet, []string, error) {
	spec := flowScaleFor(p.scale())
	xgft, err := spec.xgft.Build()
	if err != nil {
		return nil, nil, err
	}
	rfc, rud, err := buildRoutableRFC(spec.rfc, rng.At(p.seed(), rng.StringCoord("flowscale/topology/RFC")))
	if err != nil {
		return nil, nil, err
	}
	rrn, err := topology.NewRRN(spec.rrnN, spec.rrnDeg, spec.rrnTps,
		rng.At(p.seed(), rng.StringCoord("flowscale/topology/RRN")))
	if err != nil {
		return nil, nil, err
	}
	rrnNet, err := flow.NewRRN(rrn, p.Workers)
	if err != nil {
		return nil, nil, err
	}
	nets := []flowNet{
		{fmt.Sprintf("XGFT-%dL-R%d", spec.xgft.Levels, spec.xgft.Radix),
			flow.NewClos(xgft, routing.New(xgft), nil), xgft.Terminals()},
		{fmt.Sprintf("RFC-%dL-R%d", spec.rfc.Levels, spec.rfc.Radix),
			flow.NewClos(rfc, rud, nil), rfc.Terminals()},
		{fmt.Sprintf("RRN-R%d", spec.rrnDeg+spec.rrnTps), rrnNet, rrn.Terminals()},
	}
	notes := []string{
		fmt.Sprintf("XGFT %s, RFC %v, RRN %d switches × Δ%d+%d terminals — T=%d each (~10× the equal-resources scenario)",
			netShape(spec.xgft), spec.rfc, spec.rrnN, spec.rrnDeg, spec.rrnTps, xgft.Terminals()),
	}
	return nets, notes, nil
}

// netShape renders a CFTSpec compactly for report notes.
func netShape(s CFTSpec) string {
	return fmt.Sprintf("R%d %dL ×%d/leaf", s.Radix, s.Levels, s.TermsPerLeaf)
}
