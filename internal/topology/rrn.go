package topology

import (
	"fmt"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
)

// RRN is a random regular network: the Jellyfish-style direct topology the
// paper uses as the random baseline. N switches form a random Δ-regular
// graph; each switch additionally attaches TermsPerSwitch compute nodes, so
// the switch radix is Δ + TermsPerSwitch.
type RRN struct {
	G              *graph.Graph
	Degree         int
	TermsPerSwitch int
}

// NewRRN generates a random regular network with n switches of network
// degree d and t terminals per switch.
func NewRRN(n, d, t int, r *rng.Rand) (*RRN, error) {
	if t < 0 {
		return nil, fmt.Errorf("topology: RRN terminals per switch %d < 0", t)
	}
	g, err := graph.RandomRegular(n, d, r)
	if err != nil {
		return nil, fmt.Errorf("topology: RRN(%d,%d): %w", n, d, err)
	}
	return &RRN{G: g, Degree: d, TermsPerSwitch: t}, nil
}

// N returns the switch count.
func (r *RRN) N() int { return r.G.N() }

// Radix returns the switch radix (network ports + terminal ports).
func (r *RRN) Radix() int { return r.Degree + r.TermsPerSwitch }

// Terminals returns the total number of compute nodes.
func (r *RRN) Terminals() int { return r.G.N() * r.TermsPerSwitch }

// Wires returns the number of switch-to-switch links.
func (r *RRN) Wires() int { return r.G.M() }

// Diameter returns the exact switch-graph diameter (-1 when disconnected).
func (r *RRN) Diameter() int { return r.G.Diameter() }
