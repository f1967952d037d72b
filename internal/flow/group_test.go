package flow

import (
	"slices"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// removeWires removes a random 2% of c's wires.
func removeWires(c *topology.Clos, r *rng.Rand) {
	links := c.Links()
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links[:len(links)/50] {
		c.RemoveLink(l.A, l.B)
	}
}

// groupNets are the networks of TestGroupedResolveMatchesResolve: the
// small flowscale XGFT with and without 2% of its wires removed, a random
// RFC, the same RFC with 2% of its wires removed (so some leaf pairs have
// no up/down path) and an RRN.
func groupNets(t *testing.T) []namedNet {
	t.Helper()
	xgft, err := topology.NewCFTWithTerminals(16, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	// RFC(8,3,72) sits near the routability threshold, so removing 2% of
	// its wires leaves a few leaf pairs without an up/down path.
	params := core.Params{Radix: 8, Levels: 3, Leaves: 72}
	rfc, rud, _, err := core.GenerateRoutable(params, 50, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	faulted := rfc.Clone()
	removeWires(faulted, rng.New(33))
	fud := routing.New(faulted)
	if fud.UnroutablePairs(1) == 0 {
		t.Fatal("faulted RFC has no unroutable pair")
	}
	rrn, err := topology.NewRRN(256, 6, 2, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewRRN(rrn, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A faulted XGFT breaks the symmetry that lets most XGFT up hops skip
	// probing, so both hop kinds meet on one path.
	fx := xgft.Clone()
	removeWires(fx, rng.New(35))
	return []namedNet{
		{"xgft-flowscale-small", NewClos(xgft, routing.New(xgft), nil)},
		{"xgft-flowscale-small-faulted", NewClos(fx, routing.New(fx), nil)},
		{"rfc8x3x72", NewClos(rfc, rud, nil)},
		{"rfc8x3x72-faulted", NewClos(faulted, fud, nil)},
		{"rrn256x6x2", rn},
	}
}

// groupMatrix is a uniform matrix over n's terminals with every fifth
// flow's rate zeroed, plus one src == dst flow and one same-switch pair per
// terminal and, on a folded Clos, one flow per ordered leaf pair without an
// up/down path.
func groupMatrix(n Network) []traffic.Demand {
	t, per := int32(n.Terminals()), int32(2)
	c, clos := n.(*ClosNetwork)
	if clos {
		per = int32(c.c.TermsPerLeaf)
	}
	m := traffic.UniformMatrix(int(t), 2, rng.New(34))
	for i := range m {
		if i%5 == 0 {
			m[i].Rate = 0
		}
	}
	for s := int32(0); s < t; s++ {
		mate := s - s%per + (s+1)%per
		m = append(m, traffic.Demand{Src: s, Dst: s, Rate: 0.25}, traffic.Demand{Src: s, Dst: mate, Rate: 0.25})
	}
	if clos && !c.ud.Routable() {
		for a := int32(0); a < t/per; a++ {
			for b := int32(0); b < t/per; b++ {
				if c.ud.MinTurn(int(a), int(b)) < 0 {
					m = append(m, traffic.Demand{Src: a * per, Dst: b*per + 1, Rate: 0.5})
				}
			}
		}
	}
	return m
}

// TestGroupedResolveMatchesResolve checks the grouped path resolution
// against the per-flow reference: at one worker and at three, every flow
// with demand gets exactly the links Network.Resolve gives it on its own
// stream (none when Resolve finds no path), and every flow without demand
// gets none.
func TestGroupedResolveMatchesResolve(t *testing.T) {
	const seed = 41
	for _, nt := range groupNets(t) {
		m := groupMatrix(nt.n)
		unroutable := 0
		for _, workers := range []int{1, 3} {
			p, err := resolvePaths(nt.n, m, Options{Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			paths := p.byFlow(len(m))
			for i, d := range m {
				var want []int32
				if d.Rate > 0 {
					q, ok := nt.n.Resolve(d.Src, d.Dst, rng.At(seed, pathCoord, uint64(i)), nil)
					if ok {
						want = q
					} else if workers == 1 {
						unroutable++
					}
				}
				if got := paths[i]; !slices.Equal(got, want) {
					t.Fatalf("%s workers=%d flow %d (%d→%d rate %g): links %v, Resolve gives %v",
						nt.name, workers, i, d.Src, d.Dst, d.Rate, got, want)
				}
			}
		}
		if c, ok := nt.n.(*ClosNetwork); ok && !c.ud.Routable() != (unroutable > 0) {
			t.Errorf("%s: %d unroutable flows, routable %v", nt.name, unroutable, c.ud.Routable())
		}
	}
}
