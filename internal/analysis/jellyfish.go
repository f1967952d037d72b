package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Jellyfish runs the comparison the paper declines to simulate (§6): the
// equal-resources RFC against Jellyfish-style random regular networks,
// under uniform traffic. Two RRNs are simulated:
//
//   - "equal-T": the minimal-radix RRN carrying the same terminal count
//     (the §7 sizing rule), and
//   - "equal-equipment": an RRN built from the same switch count and radix
//     as the RFC, carrying more terminals (the Jellyfish paper's "more
//     servers with the same equipment" configuration).
//
// The direct networks route ECMP-shortest with hop-indexed virtual
// channels for deadlock freedom — the extra mechanism (VCs >= diameter)
// that the paper's §1/§6 cost argument is about; the report records the VC
// requirement next to the throughput. It reads Scale, Seed, Cycles, Reps
// and Loads (defaults JellyfishDefaults). The (network × load ×
// rep) grid runs on the worker pool with coordinate-derived per-job streams,
// so the report is byte-identical for any p.Workers.
func Jellyfish(p Params) (*Report, error) {
	p = p.WithDefaults(JellyfishDefaults)
	sc := Scenarios(p.Scale)[0]

	rfc, rud, err := buildRoutableRFC(sc.RFC, rng.At(p.seed(), rng.StringCoord("jellyfish/topology/RFC")))
	if err != nil {
		return nil, err
	}
	// Equal-T RRN (minimal radix for the same terminals at diameter 4).
	spec := rrnSpecFor(sc.RFC.Terminals(), 4)
	eqT, err := topology.NewRRN(spec.N, spec.Degree, spec.TermsPerSwitch,
		rng.At(p.seed(), rng.StringCoord("jellyfish/topology/RRN-eqT")))
	if err != nil {
		return nil, err
	}
	// Equal-equipment RRN: same switch count and radix as the RFC, ports
	// split ~Δ:tps = 3:1 like a diameter-4 RRN.
	eqSwitches := sc.RFC.Switches()
	eqRadix := sc.RFC.Radix
	tps := eqRadix / 4
	deg := eqRadix - tps
	if (eqSwitches*deg)%2 != 0 {
		eqSwitches++
	}
	eqEquip, err := topology.NewRRN(eqSwitches, deg, tps,
		rng.At(p.seed(), rng.StringCoord("jellyfish/topology/RRN-eqEquip")))
	if err != nil {
		return nil, err
	}

	// The three rows of the comparison: the RFC on the indirect-network
	// simulator, the RRNs on the direct one.
	rows := []netUnderTest{
		{name: fmt.Sprintf("RFC-R%d", sc.RFC.Radix), c: rfc, ud: rud},
		{name: fmt.Sprintf("RRN-eqT-R%d", spec.Radix()), rrn: eqT},
		{name: fmt.Sprintf("RRN-eqEquip-R%d", eqRadix), rrn: eqEquip},
	}
	groups := make([]gridGroup, len(rows))
	for i, row := range rows {
		groups[i] = gridGroup{name: row.name, xs: p.Loads}
	}
	sim := p.sim()
	set, err := grid{
		p:      p,
		groups: groups,
		cols:   []string{"accepted", "latency"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("jellyfish/" + rows[j.g].name), math.Float64bits(j.x), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			row := rows[j.g]
			res, err := row.simulate(traffic.NewUniform(row.terminals()), sim, stream.Uint64(), j.x)
			return []float64{res.AcceptedLoad, res.AvgLatency}, err
		},
	}.collect()
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Title: fmt.Sprintf("Extension: RFC vs Jellyfish (RRN), uniform traffic (%s scale)", p.Scale),
		Notes: []string{
			fmt.Sprintf("RFC: %v — deadlock-free with 0 required VCs", sc.RFC),
			fmt.Sprintf("RRN equal-T: %d switches × R%d, T=%d", eqT.N(), spec.Radix(), eqT.Terminals()),
			fmt.Sprintf("RRN equal-equipment: %d switches × R%d, T=%d (%.0f%% more terminals than the RFC)",
				eqEquip.N(), eqRadix, eqEquip.Terminals(),
				100*(float64(eqEquip.Terminals())/float64(sc.RFC.Terminals())-1)),
			"RRN rows need VCs >= diameter for deadlock freedom (hop-indexed scheme)",
		},
		Header: []string{"network", "load", "accepted", "latency"},
	}
	for _, row := range rows {
		for _, load := range p.Loads {
			rep.AddKeyed(fmt.Sprintf("%s@%g", row.name, load), Str(row.name), Float(load, "%.4g"),
				set.mean(row.name+"/accepted", load, "%.4f"), set.mean(row.name+"/latency", load, "%.1f"))
		}
	}
	return rep, nil
}
