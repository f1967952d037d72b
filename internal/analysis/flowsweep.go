package analysis

import (
	"cmp"
	"fmt"
	"math"
	"sync"

	"rfclos/internal/core"
	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// flowNet couples a named network with its flow-level routing adapter,
// which net builds on its first call (once, whichever job calls first) and
// returns on every call.
type flowNet struct {
	name  string
	net   func() (flow.Network, error)
	terms int
}

// builtNet is a flowNet whose adapter is already built.
func builtNet(name string, n flow.Network) flowNet {
	return flowNet{name, func() (flow.Network, error) { return n, nil }, n.Terminals()}
}

// runFlowGrid executes the (network × pattern × load × rep) grid on the
// worker pool and aggregates it into a (series, load, value, stddev) report
// with three series per (network, pattern) group: accepted throughput per
// terminal, the minimum flow rate (the starved-flow floor the mean hides)
// and Jain's fairness index — the flow backend's new report columns.
func runFlowGrid(title string, notes []string, nets []flowNet, p Params) (*Report, error) {
	set, err := flowGrid(nets, p).collect()
	if err != nil {
		return nil, err
	}
	notes = append(notes,
		"flow-level backend: max-min-fair water-filling over unit-capacity links, one random shortest path per flow",
		"accepted in delivered rate per terminal; minrate is the worst flow's rate; jain is Jain's fairness index")
	return set.report(title, notes, "offered load", "value"), nil
}

// flowGrid is runFlowGrid's job grid: group g is network g/np under
// patterns[g%np], for np patterns, over p's loads with p's reps, both
// filled in by the runner. Workers claim the heaviest loads first, since a
// solve's cost grows with load, and the networks in turn within a load, so
// that the first claims build different networks at once.
func flowGrid(nets []flowNet, p Params) grid {
	var groups []gridGroup
	for _, n := range nets {
		groups = append(groups, patternGroups(n.name, p.Patterns, p.Loads)...)
	}
	np := len(p.Patterns)
	return grid{
		p:      p,
		groups: groups,
		cols:   []string{"accepted", "minrate", "jain"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("flow/" + nets[j.g/np].name), rng.StringCoord(p.Patterns[j.g%np]),
				math.Float64bits(j.x), uint64(j.rep)}
		},
		claim: func(a, b gridJob) int {
			return cmp.Or(cmp.Compare(b.x, a.x), cmp.Compare(a.g%np, b.g%np), cmp.Compare(a.g, b.g), cmp.Compare(a.rep, b.rep))
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			res, err := solveFlowJob(nets[j.g/np], p.Patterns[j.g%np], j.x, stream)
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
	net, err := n.net()
	if err != nil {
		return nil, err
	}
	m, err := traffic.NewMatrix(pattern, n.terms, stream)
	if err != nil {
		return nil, err
	}
	return flow.Solve(net, traffic.ScaleMatrix(m, load), flow.Options{Seed: stream.Uint64(), Workers: 1})
}

// FlowScenarioSweep is ScenarioSweep on the flow-level backend: the same
// scenario networks (identical generation streams, so the topologies match
// the cycle backend's run for run), each matrix pattern swept across
// offered loads with per-flow max-min rates instead of cycle simulation. It
// reads Seed, Reps, Loads and Patterns (defaults ScenarioDefaults, the
// three §6 packet patterns); there is no cycle count, each
// grid point is one exact water-filling solve.
func FlowScenarioSweep(sc Scenario, p Params) (*Report, error) {
	nets, err := buildScenarioNets(sc, p.seed())
	if err != nil {
		return nil, err
	}
	fnets := make([]flowNet, len(nets))
	for i, n := range nets {
		fnets[i] = builtNet(n.name, flow.NewClos(n.c, n.ud, nil))
	}
	notes := []string{
		fmt.Sprintf("scenario %s: CFT T=%d, RFC T=%d", sc.Name, sc.CFT.Terminals(), sc.RFC.Terminals()),
	}
	return runFlowGrid("Flow backend: max-min throughput, scenario "+sc.Name, notes, fnets, p.withDefaults(ScenarioDefaults))
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
// terminal counts. It reads Scale and FlowScenarioSweep's settings, with
// its own defaults (FlowScaleDefaults): at 10× scale the default patterns
// are the cheap pair that separates the topologies.
func FlowScale(p Params) (*Report, error) {
	p = p.withDefaults(FlowScaleDefaults)
	nets, notes := flowScaleNets(p)
	title := fmt.Sprintf("Flow backend: RFC vs RRN vs XGFT at 10× scale (%s)", p.Scale)
	return runFlowGrid(title, notes, nets, p)
}

// flowScaleNets names FlowScale's three networks and writes its note
// line. Each network is built by the first job that solves on it, so the
// builds run on the worker pool, beside other networks' solves.
func flowScaleNets(p Params) ([]flowNet, []string) {
	spec := flowScaleFor(p.Scale)
	t := spec.xgft.Terminals()
	nets := []flowNet{
		{fmt.Sprintf("XGFT-%dL-R%d", spec.xgft.Levels, spec.xgft.Radix), sync.OnceValues(func() (flow.Network, error) {
			xgft, err := spec.xgft.Build()
			if err != nil {
				return nil, err
			}
			return flow.NewClos(xgft, routing.New(xgft), nil), nil
		}), t},
		{fmt.Sprintf("RFC-%dL-R%d", spec.rfc.Levels, spec.rfc.Radix), sync.OnceValues(func() (flow.Network, error) {
			rfc, rud, err := buildRoutableRFC(spec.rfc, rng.At(p.seed(), rng.StringCoord("flowscale/topology/RFC")))
			if err != nil {
				return nil, err
			}
			return flow.NewClos(rfc, rud, nil), nil
		}), spec.rfc.Terminals()},
		{fmt.Sprintf("RRN-R%d", spec.rrnDeg+spec.rrnTps), sync.OnceValues(func() (flow.Network, error) {
			rrn, err := topology.NewRRN(spec.rrnN, spec.rrnDeg, spec.rrnTps,
				rng.At(p.seed(), rng.StringCoord("flowscale/topology/RRN")))
			if err != nil {
				return nil, err
			}
			return flow.NewRRN(rrn, p.Workers)
		}), spec.rrnN * spec.rrnTps},
	}
	notes := []string{
		fmt.Sprintf("XGFT %s, RFC %v, RRN %d switches × Δ%d+%d terminals — T=%d each (~10× the equal-resources scenario)",
			netShape(spec.xgft), spec.rfc, spec.rrnN, spec.rrnDeg, spec.rrnTps, t),
	}
	return nets, notes
}

// netShape renders a CFTSpec compactly for report notes.
func netShape(s CFTSpec) string {
	return fmt.Sprintf("R%d %dL ×%d/leaf", s.Radix, s.Levels, s.TermsPerLeaf)
}
