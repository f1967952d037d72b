package analysis

import (
	"fmt"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// TablesReport quantifies the §1/§6 simplicity argument: the forwarding
// state a deployment needs. For the equal-resources CFT and RFC it builds
// the explicit per-switch ECMP tables and reports entry counts, total ECMP
// port references and memory, next to the compressed cover state the router
// actually uses. The RRN column estimates the k-shortest-path state Jellyfish
// requires (k paths × average path length per switch pair), which grows
// faster and must be recomputed globally on every expansion or fault. It
// reads Scale and Seed.
func TablesReport(p Params, kPaths int) (*Report, error) {
	scale := p.scale()
	sc := Scenarios(scale)[0]
	r := rng.At(p.seed(), rng.StringCoord("tables"))
	rep := &Report{
		Title: fmt.Sprintf("Forwarding state comparison (%s equal-resources scenario)", scale),
		Notes: []string{
			"CFT/RFC: explicit shortest up/down ECMP tables (entries × destinations)",
			fmt.Sprintf("RRN: estimated %d-shortest-paths state (Jellyfish routing), hops stored per path", kPaths),
		},
		Header: []string{"network", "switches", "entries", "port refs", "explicit bytes", "cover bytes"},
	}
	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	cud := routing.New(cft)
	cst := cud.Stats(cud.BuildTables())
	rep.AddRow(Str(fmt.Sprintf("CFT-R%d", sc.CFT.Radix)), Int(cst.Switches), Int(cst.TotalEntries),
		Int(cst.TotalPortRefs), Int(cst.ApproxBytes), Int(cst.CoverBytes))

	_, rud, err := buildRoutableRFC(sc.RFC, r)
	if err != nil {
		return nil, err
	}
	rst := rud.Stats(rud.BuildTables())
	rep.AddRow(Str(fmt.Sprintf("RFC-R%d", sc.RFC.Radix)), Int(rst.Switches), Int(rst.TotalEntries),
		Int(rst.TotalPortRefs), Int(rst.ApproxBytes), Int(rst.CoverBytes))

	// RRN estimate: size an RRN for the same terminal count, sample pairs
	// to get the average k-shortest path length, extrapolate state size.
	spec := rrnSpecFor(sc.CFT.Terminals(), 4)
	rrn, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch, r)
	if err != nil {
		return nil, err
	}
	const pairSamples = 30
	totalHops := 0.0
	counted := 0
	for i := 0; i < pairSamples; i++ {
		a, b := r.Intn(rrn.N()), r.Intn(rrn.N())
		if a == b {
			continue
		}
		for _, p := range rrn.G.KShortestPaths(a, b, kPaths) {
			totalHops += float64(len(p) - 1)
			counted++
		}
	}
	avgHops := 0.0
	if counted > 0 {
		avgHops = totalHops / float64(counted)
	}
	pairs := rrn.N() * (rrn.N() - 1)
	totalRefs := int(float64(pairs*kPaths) * avgHops)
	rep.AddRow(Str(fmt.Sprintf("RRN-R%d (k=%d est.)", spec.Radix(), kPaths)),
		Int(rrn.N()), Int(pairs*kPaths), Int(totalRefs), Int(totalRefs+2*pairs*kPaths), Str("-"))
	return rep, nil
}
