package core

import (
	"errors"
	"fmt"

	"rfclos/internal/graph"
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
	sizes := p.LevelSizes()
	half := p.Radix / 2
	c, err := topology.NewEmpty(sizes, half, p.Radix)
	if err != nil {
		return nil, err
	}
	c.SetLevelSink(sink)
	for i := 0; i < p.Levels-1; i++ {
		nA, nB := sizes[i], sizes[i+1]
		dB := nA * half / nB // R/2 below the top pair, R at the top pair
		bp, err := graph.RandomBipartite(nA, half, nB, dB, r)
		if err != nil {
			return nil, fmt.Errorf("core: level %d-%d wiring: %w", i+1, i+2, err)
		}
		e := c.WireLevel(i+1, nA*half)
		for a, ns := range bp.AdjA {
			sa := c.SwitchID(i+1, a)
			for _, b := range ns {
				e.Link(sa, c.SwitchID(i+2, int(b)))
			}
		}
		e.Seal()
	}
	return c, nil
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
