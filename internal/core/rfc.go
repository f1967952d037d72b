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
	return GenerateStream(p, r, nil)
}

// GenerateStream is Generate with a level sink: each level pair's random
// bipartite wiring is sealed into the CSR store — and handed to sink —
// before the next pair is drawn, so the bipartite scratch of one level pair
// is all the extra memory construction ever holds.
func GenerateStream(p Params, r *rng.Rand, sink topology.LevelSink) (*topology.Clos, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	half := p.Radix / 2
	up := make([]int, p.Levels-1)
	for i := range up {
		up[i] = half
	}
	return generateGeneral(GeneralParams{TermsPerLeaf: half, Sizes: p.LevelSizes(), UpDeg: up}, r, sink)
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
		// Stream each attempt: descendant sets are compressed level by level
		// while the bipartite wiring of the next level pair is drawn, so an
		// attempt never holds the full graph and full uncompressed state at
		// once. The result is identical to routing.New on the finished
		// topology.
		rs := routing.NewRebuildStream()
		c, err := GenerateStream(p, r, rs)
		if err != nil {
			return nil, nil, attempt, err
		}
		ud := rs.Finish(c)
		if ud.Routable() {
			return c, ud, attempt, nil
		}
	}
	return nil, nil, maxAttempts, fmt.Errorf("%w: %v after %d attempts (x=%.2f, predicted success %.3f)",
		ErrNotRoutable, p, maxAttempts, XParam(p.Radix, p.Leaves, p.Levels),
		SuccessProbability(XParam(p.Radix, p.Leaves, p.Levels)))
}
