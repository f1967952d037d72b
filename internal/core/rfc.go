package core

import (
	"errors"
	"fmt"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// ErrNotRoutable is returned when repeated generation attempts fail to
// produce an RFC with the common-ancestor (up/down routing) property —
// expected behaviour below the Theorem 4.2 threshold.
var ErrNotRoutable = errors.New("core: could not generate an up/down-routable RFC")

// Generate builds one random radix-regular folded Clos network with the
// given parameters: each adjacent level pair is wired with an independent
// uniform random semi-regular bipartite graph (Appendix Listing 2). The
// result is a valid radix-regular folded Clos; whether it enjoys up/down
// routing is probabilistic, governed by Theorem 4.2.
func Generate(p Params, r *rng.Rand) (*topology.Clos, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	half := p.Radix / 2
	up := make([]int, p.Levels-1)
	for i := range up {
		up[i] = half
	}
	return generateGeneral(GeneralParams{TermsPerLeaf: half, Sizes: p.LevelSizes(), UpDeg: up}, r)
}

// GenerateRoutable repeatedly generates RFCs until one has the
// common-ancestor property required for up/down routing, giving up after
// maxAttempts. It returns the network, its routing state and the number of
// attempts used. At the x = 0 threshold the success probability per attempt
// tends to 1/e, so a handful of attempts suffice (§4.1).
func GenerateRoutable(p Params, maxAttempts int, r *rng.Rand) (*topology.Clos, *routing.UpDown, int, error) {
	if maxAttempts <= 0 {
		maxAttempts = 20
	}
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		c, err := Generate(p, r)
		if err != nil {
			return nil, nil, attempt, err
		}
		if ud := routing.New(c); ud.Routable() {
			return c, ud, attempt, nil
		}
	}
	return nil, nil, maxAttempts, fmt.Errorf("%w: %v after %d attempts (x=%.2f, predicted success %.3f)",
		ErrNotRoutable, p, maxAttempts, XParam(p.Radix, p.Leaves, p.Levels),
		SuccessProbability(XParam(p.Radix, p.Leaves, p.Levels)))
}
