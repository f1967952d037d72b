package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// rrnVCs is the hop-indexed virtual-channel budget of every simulated RRN:
// it covers any small-network diameter.
const rrnVCs = 16

// netUnderTest is a named simulated network: a folded Clos with its
// routing state, or an RRN when rrn is set.
type netUnderTest struct {
	name string
	c    *topology.Clos
	ud   *routing.UpDown
	rrn  *topology.RRN
}

// terminals returns the network's terminal count.
func (n netUnderTest) terminals() int {
	if n.rrn != nil {
		return n.rrn.Terminals()
	}
	return n.c.Terminals()
}

// simulate runs one simulation point at the offered load. A folded Clos
// runs on the indirect-network simulator with sim's parameters; an RRN runs
// on the direct one with the same Table 2 parameters, minimal routing and
// rrnVCs hop-indexed VCs, and fails when it cannot route deadlock-free.
func (n netUnderTest) simulate(pat traffic.Pattern, sim simnet.Config, seed uint64, load float64) (simnet.Result, error) {
	sim.Seed = seed
	if n.rrn == nil {
		return simnet.New(n.c, n.ud, pat, sim).Run(load), nil
	}
	sim.VCs = rrnVCs
	d, err := simnet.NewRRN(n.rrn, pat, sim)
	if err != nil {
		return simnet.Result{}, err
	}
	return d.Run(load), nil
}

// patternGroups returns one network's groups of a sweep grid, one
// "network/pattern" group per pattern, each over xs.
func patternGroups(net string, patterns []string, xs []float64) []gridGroup {
	groups := make([]gridGroup, len(patterns))
	for i, pat := range patterns {
		groups[i] = gridGroup{name: net + "/" + pat, xs: xs}
	}
	return groups
}

// buildScenarioNets constructs a scenario's networks with per-network
// coordinate-derived generation streams.
func buildScenarioNets(sc Scenario, seed uint64) ([]netUnderTest, error) {
	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	nets := []netUnderTest{{
		name: fmt.Sprintf("CFT-%dL-R%d", sc.CFT.Levels, sc.CFT.Radix), c: cft, ud: routing.New(cft)}}
	rfc, rud, err := buildRoutableRFC(sc.RFC, rng.At(seed, rng.StringCoord("scenario/topology/RFC")))
	if err != nil {
		return nil, err
	}
	nets = append(nets, netUnderTest{
		name: fmt.Sprintf("RFC-%dL-R%d", sc.RFC.Levels, sc.RFC.Radix), c: rfc, ud: rud})
	if sc.AltRFC != nil {
		alt, aud, err := buildRoutableRFC(*sc.AltRFC, rng.At(seed, rng.StringCoord("scenario/topology/AltRFC")))
		if err != nil {
			return nil, err
		}
		nets = append(nets, netUnderTest{
			name: fmt.Sprintf("RFC-%dL-R%d", sc.AltRFC.Levels, sc.AltRFC.Radix), c: alt, ud: aud})
	}
	return nets, nil
}

// ScenarioSweep runs the full Figure 8/9/10 experiment for one scenario:
// every network in the scenario × every traffic pattern × the load sweep,
// one (network × pattern × load × rep) job grid on the worker pool. It
// reads Seed, Cycles, Reps, Loads, Patterns (defaults ScenarioDefaults) and
// InfiniteSink. Each job's stream is rng.At(Seed,
// StringCoord(network), StringCoord(pattern), Float64bits(load), rep), so
// the report is byte-identical for any p.Workers.
func ScenarioSweep(sc Scenario, p Params) (*Report, error) {
	nets, err := buildScenarioNets(sc, p.seed())
	if err != nil {
		return nil, err
	}
	p = p.withDefaults(ScenarioDefaults)
	var groups []gridGroup
	for _, n := range nets {
		groups = append(groups, patternGroups(n.name, p.Patterns, p.Loads)...)
	}
	sim := p.sim()
	sim.InfiniteSink = p.InfiniteSink
	np := len(p.Patterns)
	set, err := grid{
		p:      p,
		groups: groups,
		cols:   []string{"throughput", "latency"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord(nets[j.g/np].name), rng.StringCoord(p.Patterns[j.g%np]),
				math.Float64bits(j.x), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			n := nets[j.g/np]
			pat, err := traffic.New(p.Patterns[j.g%np], n.terminals(), stream)
			if err != nil {
				return nil, err
			}
			res, err := n.simulate(pat, sim, stream.Uint64(), j.x)
			return []float64{res.AcceptedLoad, res.AvgLatency}, err
		},
	}.collect()
	if err != nil {
		return nil, err
	}
	notes := []string{
		fmt.Sprintf("scenario %s: CFT T=%d, RFC T=%d", sc.Name, sc.CFT.Terminals(), sc.RFC.Terminals()),
		"throughput in accepted phits/node/cycle; latency in cycles (generation to tail delivery)",
	}
	return set.report("Figures 8-10: latency & throughput, scenario "+sc.Name,
		notes, "offered load", "value"), nil
}
