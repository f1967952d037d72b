package core

import (
	"fmt"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// GeneralParams describes an arbitrary folded Clos shape per Definition 4.1
// of the paper: any per-level switch counts and up-link degrees, not just
// the radix-regular family. The derived down-degree of level i+1 is
// Sizes[i]*UpDeg[i]/Sizes[i+1], which must divide evenly.
//
// Two named special cases from the paper:
//
//   - the radix-regular RFC (Params) is Sizes = [N1,...,N1,N1/2] and
//     UpDeg = [R/2,...];
//   - the Hashnet of Fahlman (§2, §4) is the unfolding of the RFC with
//     equal switch counts at every level (NewHashnetParams).
type GeneralParams struct {
	// TermsPerLeaf is the number of compute nodes per level-1 switch.
	TermsPerLeaf int
	// Sizes is the switch count per level, leaves first; len >= 2.
	Sizes []int
	// UpDeg[i] is the up-link count of each level-(i+1) switch;
	// len(UpDeg) == len(Sizes)-1.
	UpDeg []int
}

// NewHashnetParams returns the equal-level-size RFC of n switches per
// level and degree d, the folded form of Fahlman's Hashnet.
func NewHashnetParams(n, levels, d, termsPerLeaf int) GeneralParams {
	sizes := make([]int, levels)
	up := make([]int, levels-1)
	for i := range sizes {
		sizes[i] = n
	}
	for i := range up {
		up[i] = d
	}
	return GeneralParams{TermsPerLeaf: termsPerLeaf, Sizes: sizes, UpDeg: up}
}

// Validate checks feasibility: positive sizes and degrees, even link
// balance between adjacent levels and degrees not exceeding the opposite
// level's size (simple bipartite graphs must exist).
func (p GeneralParams) Validate() error {
	if len(p.Sizes) < 2 {
		return fmt.Errorf("core: general RFC needs >= 2 levels, got %d", len(p.Sizes))
	}
	if len(p.UpDeg) != len(p.Sizes)-1 {
		return fmt.Errorf("core: need %d up-degrees, got %d", len(p.Sizes)-1, len(p.UpDeg))
	}
	if p.TermsPerLeaf <= 0 {
		return fmt.Errorf("core: non-positive terminals per leaf %d", p.TermsPerLeaf)
	}
	for i, n := range p.Sizes {
		if n <= 0 {
			return fmt.Errorf("core: level %d has non-positive size %d", i+1, n)
		}
	}
	for i, u := range p.UpDeg {
		if u <= 0 {
			return fmt.Errorf("core: level %d has non-positive up-degree %d", i+1, u)
		}
		links := p.Sizes[i] * u
		if links%p.Sizes[i+1] != 0 {
			return fmt.Errorf("core: level %d-%d link count %d does not divide level size %d",
				i+1, i+2, links, p.Sizes[i+1])
		}
		down := links / p.Sizes[i+1]
		if u > p.Sizes[i+1] {
			return fmt.Errorf("core: level %d up-degree %d exceeds level %d size %d",
				i+1, u, i+2, p.Sizes[i+1])
		}
		if down > p.Sizes[i] {
			return fmt.Errorf("core: level %d down-degree %d exceeds level %d size %d",
				i+2, down, i+1, p.Sizes[i])
		}
	}
	return nil
}

// DownDeg returns the derived down-degree of level i+2 switches (i indexes
// the level pair, 0-based).
func (p GeneralParams) DownDeg(i int) int {
	return p.Sizes[i] * p.UpDeg[i] / p.Sizes[i+1]
}

// Terminals returns the terminal count.
func (p GeneralParams) Terminals() int { return p.Sizes[0] * p.TermsPerLeaf }

// MaxRadix returns the largest port count any switch uses.
func (p GeneralParams) MaxRadix() int {
	max := p.TermsPerLeaf + p.UpDeg[0]
	l := len(p.Sizes)
	for i := 1; i < l; i++ {
		ports := p.DownDeg(i - 1)
		if i < l-1 {
			ports += p.UpDeg[i]
		}
		if ports > max {
			max = ports
		}
	}
	return max
}

// GenerateGeneral builds one uniformly random folded Clos with the given
// general parameters (Definition 4.1), wiring each adjacent level pair with
// an independent random bipartite graph.
func GenerateGeneral(p GeneralParams, r *rng.Rand) (*topology.Clos, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c, err := topology.NewEmpty(p.Sizes, p.TermsPerLeaf, p.MaxRadix())
	if err != nil {
		return nil, err
	}
	for i := 0; i < len(p.Sizes)-1; i++ {
		bp, err := graph.RandomBipartite(p.Sizes[i], p.UpDeg[i], p.Sizes[i+1], p.DownDeg(i), r)
		if err != nil {
			return nil, fmt.Errorf("core: level %d-%d wiring: %w", i+1, i+2, err)
		}
		e := c.WireLevel(i+1, p.Sizes[i]*p.UpDeg[i])
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
