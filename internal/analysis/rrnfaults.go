package analysis

import (
	"fmt"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// RRNFaults extends the Figure 12 fault methodology to the random baseline
// the paper leaves unsimulated: maximum throughput (accepted load at offered
// 1.0) of the equal-resources RFC and the equal-T RRN as links fail, under
// uniform and adversarial shift traffic. Both network classes run on the
// unified cycle engine, differing only in routing policy, so the degradation
// curves are directly comparable. RFC points route up/down around faults
// (unroutable pairs are counted, the network keeps working); RRN points
// recompute shortest paths on the faulted graph and score 0 when the faults
// disconnect it or push its diameter past the hop-indexed VC budget — the
// deadlock-freedom fragility §1/§6 attribute to direct random networks.
// The fault count grows from 0 in the given number of equal steps up to
// ~13% of each network's wires. It reads Scale, Seed, Cycles and Reps
// (RRNFaultsDefaults); its grid points are independent jobs with streams
// from their coordinates, so the report is byte-identical for any p.Workers.
func RRNFaults(p Params, steps int) (*Report, error) {
	p = p.withDefaults(RRNFaultsDefaults)
	sc := Scenarios(p.Scale)[0]

	rfc, _, err := buildRoutableRFC(sc.RFC, rng.At(p.seed(), rng.StringCoord("rrnfaults/topology/RFC")))
	if err != nil {
		return nil, err
	}
	spec := rrnSpecFor(sc.RFC.Terminals(), 4)
	rrn, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch,
		rng.At(p.seed(), rng.StringCoord("rrnfaults/topology/RRN")))
	if err != nil {
		return nil, err
	}
	nets := []netUnderTest{
		{name: fmt.Sprintf("RFC-R%d", sc.RFC.Radix), c: rfc},
		{name: fmt.Sprintf("RRN-R%d", spec.Radix()), rrn: rrn},
	}
	patterns := []string{"uniform", "shift"}
	groups := append(patternGroups(nets[0].name, patterns, faultCounts(rfc.Wires(), steps)),
		patternGroups(nets[1].name, patterns, faultCounts(rrn.Wires(), steps))...)
	np := len(patterns)
	sim := p.sim()
	set, err := grid{
		p:      p,
		groups: groups,
		cols:   []string{"accepted"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("rrnfaults/" + nets[j.g/np].name), rng.StringCoord(patterns[j.g%np]),
				uint64(j.x), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			n := nets[j.g/np]
			if n.rrn == nil {
				n.c = n.c.Clone()
				RemoveRandomLinks(n.c, int(j.x), stream)
				n.ud = routing.New(n.c)
			} else {
				n.rrn = &topology.RRN{G: n.rrn.G.Clone(), Degree: n.rrn.Degree, TermsPerSwitch: n.rrn.TermsPerSwitch}
				removeRandomGraphLinks(n.rrn.G, int(j.x), stream)
			}
			var pat traffic.Pattern
			if patterns[j.g%np] == "shift" {
				pat = traffic.NewShift(n.terminals(), 0)
			} else {
				pat = traffic.NewUniform(n.terminals())
			}
			// An RRN that faults disconnected, or whose diameter grew past
			// the VC budget, cannot route deadlock-free any more: it scores 0.
			res, err := n.simulate(pat, sim, stream.Uint64(), 1.0)
			if err != nil {
				return []float64{0}, nil
			}
			return []float64{res.AcceptedLoad}, nil
		},
	}.collect()
	if err != nil {
		return nil, err
	}
	return set.report("Extension: max throughput under link faults, RFC vs RRN (unified engine)",
		[]string{
			fmt.Sprintf("scale=%s; offered load 1.0; faults up to ~13%% of each network's wires", p.Scale),
			fmt.Sprintf("RFC: %v, up/down routing around faults; RRN: %d switches × R%d, minimal routing with %d hop-indexed VCs",
				sc.RFC, rrn.N(), spec.Radix(), rrnVCs),
			"RRN points score 0 when faults disconnect the graph or push its diameter past the VC budget",
		},
		"faulty links", "accepted load"), nil
}

// removeRandomGraphLinks deletes n uniformly random edges from g (fewer when
// g runs out).
func removeRandomGraphLinks(g *graph.Graph, n int, r *rng.Rand) {
	for i := 0; i < n; i++ {
		edges := g.Edges()
		if len(edges) == 0 {
			return
		}
		e := edges[r.Intn(len(edges))]
		g.RemoveEdge(int(e.U), int(e.V))
	}
}
