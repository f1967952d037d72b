// Package simdirect simulates direct networks — the Jellyfish-style random
// regular networks (RRN) the paper uses as its random baseline but
// deliberately leaves out of its simulations (§6: "the Jellyfish ... is out
// of the natural competition"). This package makes the comparison possible
// anyway, as an extension.
//
// It is a thin adapter over the unified cycle engine (internal/simcore): the
// engine owns the entire virtual cut-through machinery, and this package
// contributes only the topology wiring and the minimal-path routing policy.
// Routing is equal-cost multi-path over shortest paths: per hop, the packet
// picks uniformly among neighbours one hop closer to the destination
// (precomputed distance tables). Unlike a folded Clos, a direct network's
// shortest-path channel dependency graph contains cycles, so deadlock
// freedom needs a mechanism — exactly the §1/§6 cost the paper attributes
// to Jellyfish. Here the standard hop-indexed virtual-channel scheme is
// used: a packet at hop h occupies VC h, and since h strictly increases
// along a route the channel dependency graph is acyclic. This requires
// VCs >= network diameter; New enforces it (and that requirement, compared
// with the RFC's zero VCs needed for deadlock freedom, is itself one of
// the paper's arguments).
package simdirect

import (
	"fmt"

	"rfclos/internal/simcore"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Result aliases the indirect simulator's result type: the statistics have
// identical meaning.
type Result = simnet.Result

// Sim simulates one RRN under one traffic pattern.
type Sim struct {
	eng *simcore.Engine
}

// New builds the simulator, computing all-pairs distance tables. cfg's
// zero fields take the Table 2 defaults; cfg.VCs must be at least the
// network diameter (hop-indexed deadlock avoidance). RequestRefresh is
// pinned to 1 because the minimal router's random hop choice must be
// re-drawn every cycle a head packet stays blocked (INSEE behaviour); any
// cross-cycle request cache would freeze a choice the policy re-randomises.
// New fails when the graph is disconnected or the VC count cannot cover the
// diameter.
func New(rrn *topology.RRN, pat traffic.Pattern, cfg simnet.Config) (*Sim, error) {
	cfg.RequestRefresh = 1
	cfg = cfg.WithDefaults()
	router, diameter, err := MinimalRouter(rrn)
	if err != nil {
		return nil, err
	}
	if cfg.VCs < diameter {
		return nil, fmt.Errorf("simdirect: %d VCs cannot cover diameter %d (hop-indexed deadlock avoidance)",
			cfg.VCs, diameter)
	}
	n := rrn.G.N()
	spec := simcore.Spec{
		Switches:  n,
		Ports:     make([][]int32, n),
		Terminals: rrn.Terminals(),
		TermsPer:  rrn.TermsPerSwitch,
	}
	for sw := 0; sw < n; sw++ {
		spec.Ports[sw] = rrn.G.Neighbors(sw)
	}
	return &Sim{eng: simcore.New(spec, router, pat, cfg)}, nil
}

// Run simulates warm-up plus the measurement window at the offered load.
func (s *Sim) Run(load float64) Result {
	return s.eng.Run(load)
}
