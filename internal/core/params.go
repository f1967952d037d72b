// Package core implements the paper's contribution: Random Folded Clos
// (RFC) networks. It provides the generator (Definition 4.1 restricted to
// radix-regular folded Clos, built from the random bipartite graphs of
// Appendix Listing 2), the Theorem 4.2 threshold mathematics governing
// up/down routability, and the incremental expansion procedure of §5.
package core

import (
	"fmt"
	"math"
)

// Params identifies a radix-regular RFC: R (switch radix), l (levels) and
// N1 (leaf switches). Levels 1..l-1 all have N1 switches (R/2 up-links and
// R/2 down-links each; leaves attach R/2 terminals) and the top level has
// N1/2 switches with R down-links, so the terminal count is T = N1 * R/2.
type Params struct {
	Radix  int // R, even, >= 4
	Levels int // l >= 2
	Leaves int // N1, even
}

// Validate checks structural feasibility, including the bipartite degree
// bounds needed by the generator (a switch cannot have more distinct
// neighbours than the opposite level has switches).
func (p Params) Validate() error {
	switch {
	case p.Radix < 4 || p.Radix%2 != 0:
		return fmt.Errorf("core: radix must be even and >= 4, got %d", p.Radix)
	case p.Levels < 2:
		return fmt.Errorf("core: levels must be >= 2, got %d", p.Levels)
	case p.Leaves < 2 || p.Leaves%2 != 0:
		return fmt.Errorf("core: leaves must be even and >= 2, got %d", p.Leaves)
	}
	half := p.Radix / 2
	// Levels 1..l-1 have N1 switches; top has N1/2. Up-degree R/2 must not
	// exceed the size of the level above; down-degree likewise.
	if p.Levels > 2 && half > p.Leaves {
		return fmt.Errorf("core: up-degree %d exceeds level size %d", half, p.Leaves)
	}
	if half > p.Leaves/2 {
		return fmt.Errorf("core: up-degree %d exceeds top level size %d", half, p.Leaves/2)
	}
	return nil
}

// LevelSizes returns [N1, N1, ..., N1, N1/2].
func (p Params) LevelSizes() []int {
	sizes := make([]int, p.Levels)
	for i := 0; i < p.Levels-1; i++ {
		sizes[i] = p.Leaves
	}
	sizes[p.Levels-1] = p.Leaves / 2
	return sizes
}

// Terminals returns T = N1 * R/2.
func (p Params) Terminals() int { return p.Leaves * p.Radix / 2 }

// Switches returns the total switch count (l-1)*N1 + N1/2.
func (p Params) Switches() int { return (p.Levels-1)*p.Leaves + p.Leaves/2 }

// Wires returns the inter-switch link count (l-1)*N1*R/2.
func (p Params) Wires() int { return (p.Levels - 1) * p.Leaves * p.Radix / 2 }

// Diameter returns the up/down diameter 2(l-1).
func (p Params) Diameter() int { return 2 * (p.Levels - 1) }

// ParamsForTerminals picks the RFC with the given radix and levels whose
// terminal count is at least t (rounding N1 up to even).
func ParamsForTerminals(radix, levels, t int) Params {
	half := radix / 2
	n1 := (t + half - 1) / half
	if n1%2 != 0 {
		n1++
	}
	if n1 < 2 {
		n1 = 2
	}
	return Params{Radix: radix, Levels: levels, Leaves: n1}
}

// String summarises the parameters.
func (p Params) String() string {
	return fmt.Sprintf("RFC(R=%d, l=%d, N1=%d, T=%d)", p.Radix, p.Levels, p.Leaves, p.Terminals())
}

// lnBinom2 returns ln C(n, 2) for n >= 2.
func lnBinom2(n int) float64 {
	return math.Log(float64(n)) + math.Log(float64(n-1)) - math.Ln2
}
