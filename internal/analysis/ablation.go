package analysis

import (
	"fmt"

	"rfclos/internal/rng"
	"rfclos/internal/simnet"
	"rfclos/internal/traffic"
)

// ablationKnob is one knob of the ablation grid and the values it takes.
type ablationKnob struct {
	name   string
	values []float64
	set    func(c *simnet.Config, v int)
}

// Ablations quantifies the simulator/routing design choices DESIGN.md calls
// out, on the equal-resources RFC:
//
//   - virtual-channel count (Table 2 uses 4): HoL-blocking relief;
//   - per-VC buffer depth (Table 2 uses 4 packets);
//   - request-refresh period (1 = INSEE's re-randomized request per cycle;
//     larger trades adaptivity for simulation speed).
//
// Each row reports accepted load and latency at the given offered load
// under uniform traffic. It reads Scale, Seed, Cycles and Reps (defaults AblationDefaults).
// The whole (knob, value, rep) grid runs as independent jobs on the worker
// pool, each drawing its stream from its own coordinates, so the report is
// byte-identical for any p.Workers.
func Ablations(p Params, load float64) (*Report, error) {
	p = p.WithDefaults(AblationDefaults)
	sc := Scenarios(p.Scale)[0]
	rfc, ud, err := buildRoutableRFC(sc.RFC, rng.At(p.seed(), rng.StringCoord("ablation/topology/RFC")))
	if err != nil {
		return nil, err
	}

	knobs := []ablationKnob{
		{"virtual-channels", []float64{1, 2, 4, 8}, func(c *simnet.Config, v int) { c.VCs = v }},
		{"buffer-packets", []float64{1, 2, 4, 8}, func(c *simnet.Config, v int) { c.BufferPackets = v }},
		{"request-refresh", []float64{1, 4, 16}, func(c *simnet.Config, v int) { c.RequestRefresh = v }},
		// Routing policy: 0 = random per-request (Table 2), 1 = deterministic
		// D-mod-K flow hashing.
		{"hash-routing", []float64{0, 1}, func(c *simnet.Config, v int) { c.HashRouting = v == 1 }},
		// Reception model: 0 = 1 phit/cycle NIC, 1 = infinite sink.
		{"infinite-sink", []float64{0, 1}, func(c *simnet.Config, v int) { c.InfiniteSink = v == 1 }},
	}
	groups := make([]gridGroup, len(knobs))
	for i, k := range knobs {
		groups[i] = gridGroup{name: k.name, xs: k.values}
	}
	rfcNet := netUnderTest{c: rfc, ud: ud}
	sim := p.sim()
	set, err := grid{
		p:      p,
		groups: groups,
		cols:   []string{"accepted", "latency"},
		coords: func(j gridJob) []uint64 {
			return []uint64{rng.StringCoord("ablation/" + knobs[j.g].name), uint64(j.x), uint64(j.rep)}
		},
		run: func(j gridJob, stream *rng.Rand) ([]float64, error) {
			cfg := sim
			knobs[j.g].set(&cfg, int(j.x))
			res, err := rfcNet.simulate(traffic.NewUniform(rfc.Terminals()), cfg, stream.Uint64(), load)
			return []float64{res.AcceptedLoad, res.AvgLatency}, err
		},
	}.collect()
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Title: fmt.Sprintf("Ablations: simulator design knobs (%s equal-resources RFC, uniform @ %.2f)",
			p.Scale, load),
		Header: []string{"knob", "value", "accepted", "latency"},
	}
	for _, k := range knobs {
		for _, v := range k.values {
			rep.AddKeyed(fmt.Sprintf("%s=%d", k.name, int(v)), Str(k.name), Int(int(v)),
				set.mean(k.name+"/accepted", v, "%.4f"), set.mean(k.name+"/latency", v, "%.1f"))
		}
	}
	return rep, nil
}
