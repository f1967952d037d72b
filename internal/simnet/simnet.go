// Package simnet wires both network classes into the unified cycle engine
// (internal/simcore) under the INSEE configuration of Table 2: 4 virtual
// channels, 4-packet buffers per VC, 16-phit packets, 1-cycle links, random
// output arbitration with one iteration per cycle, a warm-up phase
// followed by a measured window. The engine owns the entire virtual
// cut-through machinery; this package contributes only the topology
// wiring and the routing policies.
//
// New simulates folded-Clos (indirect) networks: up ports before down
// ports at every switch, with shortest injection and random up/down request
// routing. Up/down routing needs no VCs for deadlock freedom; the 4 VCs
// reduce head-of-line blocking exactly as in the paper.
//
// NewRRN simulates the Jellyfish-style random regular networks (RRN) the
// paper uses as its random baseline but deliberately leaves out of its
// simulations (§6: "the Jellyfish ... is out of the natural competition"),
// as an extension. Routing is equal-cost multi-path over shortest paths:
// per hop, the packet picks uniformly among neighbours one hop closer to
// the destination (precomputed distance tables). A direct network's
// shortest-path channel dependency graph contains cycles, so deadlock
// freedom needs a mechanism — exactly the §1/§6 cost the paper attributes
// to Jellyfish. The standard hop-indexed virtual-channel scheme is used: a
// packet at hop h occupies VC h, and since h strictly increases along a
// route the channel dependency graph is acyclic. This requires VCs >=
// network diameter; NewRRN enforces it (and that requirement, compared with
// the RFC's zero VCs needed for deadlock freedom, is itself one of the
// paper's arguments).
package simnet

import (
	"fmt"

	"rfclos/internal/routing"
	"rfclos/internal/simcore"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Config carries the Table 2 simulation parameters (shared engine type).
type Config = simcore.Config

// Result reports one simulation run (shared engine type).
type Result = simcore.Result

// Sim simulates one network under one traffic pattern (shared engine type).
type Sim = simcore.Engine

// DefaultConfig returns the Table 2 parameters with a 2,000-cycle warm-up.
func DefaultConfig() Config { return simcore.DefaultConfig() }

// New builds a simulator over the given (possibly faulted) folded Clos, its
// routing state and a traffic pattern. The Config's zero fields take Table
// 2 defaults. Run simulates warm-up plus the measurement window; a Sim must
// not be reused after Run.
func New(c *topology.Clos, ud *routing.UpDown, pat traffic.Pattern, cfg Config) *Sim {
	spec := simcore.Spec{
		Switches:  c.NumSwitches(),
		Ports:     make([][]int32, c.NumSwitches()),
		Terminals: c.Terminals(),
		TermsPer:  c.TermsPerLeaf,
	}
	for sw := int32(0); sw < int32(spec.Switches); sw++ {
		ups, downs := c.Up(sw), c.Down(sw)
		ports := make([]int32, 0, len(ups)+len(downs))
		ports = append(ports, ups...)
		ports = append(ports, downs...)
		spec.Ports[sw] = ports
	}
	return simcore.New(spec, newUpDownRouter(c, ud, cfg.HashRouting), pat, cfg)
}

// NewRRN builds a simulator over an RRN, computing all-pairs distance
// tables. cfg's zero fields take the Table 2 defaults; cfg.VCs must be at
// least the network diameter (hop-indexed deadlock avoidance).
// RequestRefresh is pinned to 1 because the minimal router's random hop
// choice must be re-drawn every cycle a head packet stays blocked (INSEE
// behaviour); any cross-cycle request cache would freeze a choice the
// policy re-randomises. NewRRN fails when the graph is disconnected or the
// VC count cannot cover the diameter.
func NewRRN(rrn *topology.RRN, pat traffic.Pattern, cfg Config) (*Sim, error) {
	cfg.RequestRefresh = 1
	cfg = cfg.WithDefaults()
	router, diameter, err := newMinimalRouter(rrn)
	if err != nil {
		return nil, err
	}
	if cfg.VCs < diameter {
		return nil, fmt.Errorf("simnet: %d VCs cannot cover diameter %d (hop-indexed deadlock avoidance)",
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
	return simcore.New(spec, router, pat, cfg), nil
}
