package routing

import (
	"fmt"
	"slices"
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// descendants returns the descendant leaf set of switch s: its level-0
// cover.
func descendants(u *UpDown, s int32) LeafSet { return u.cover[0][s] }

// refNextDownPort is the reference model of the down-hop pickers: a
// reservoir sample over Down(s), in port order, of the children whose
// descendant set holds dst.
func refNextDownPort(u *UpDown, s int32, dst int, r *rng.Rand) int {
	chosen, count := -1, 0
	for i, ch := range u.c.Down(s) {
		if descendants(u, ch).Get(dst) {
			count++
			if count == 1 || r.Intn(count) == 0 {
				chosen = i
			}
		}
	}
	return chosen
}

// refNextDownPortHash is the reference hash pick: the qualifying port at
// position key modulo the qualifying count, in port order.
func refNextDownPortHash(u *UpDown, s int32, dst int, key uint32) int {
	var ports []int
	for i, ch := range u.c.Down(s) {
		if descendants(u, ch).Get(dst) {
			ports = append(ports, i)
		}
	}
	if len(ports) == 0 {
		return -1
	}
	return ports[key%uint32(len(ports))]
}

// RandomFoldedClos and FaultClos serve the cover goldens in package
// routing_test, which also build fabrics with internal/core.
var RandomFoldedClos, FaultClos = randomFoldedClos, faultClos

// faultClos clones c and removes a deterministic sample of inter-switch
// links (every stride-th up-link, capped), returning the faulted clone.
// Removing links also exercises the leaf-range invalidation path.
func faultClos(t *testing.T, c *topology.Clos, stride, max int) *topology.Clos {
	t.Helper()
	f := c.Clone()
	removed, k := 0, 0
	for s := int32(0); int(s) < f.NumSwitches() && removed < max; s++ {
		for _, p := range slices.Clone(f.Up(s)) {
			if k++; k%stride == 0 && f.RemoveLink(s, p) {
				removed++
				if removed >= max {
					break
				}
			}
		}
	}
	if removed == 0 {
		t.Fatalf("faultClos removed no links (stride %d)", stride)
	}
	return f
}

// duplicateLinks clones c and adds a second copy of the first up-link of
// every stride-th non-root switch, so routing sees parallel links.
func duplicateLinks(c *topology.Clos, stride int) *topology.Clos {
	d := c.Clone()
	top := d.SwitchID(d.Levels(), 0)
	for s := int32(0); s < top; s += int32(stride) {
		if up := d.Up(s); len(up) > 0 {
			d.AddLink(s, up[0])
		}
	}
	return d
}

// namedClos is one named test topology.
type namedClos struct {
	name string
	c    *topology.Clos
}

// downSelTopologies returns RFC, XGFT and CFT instances at 3, 4 and 5
// levels. The XGFTs have narrow up-paths under wide roots, so the
// destination-side frontier answers at every level, the top ones included;
// the RFCs and CFTs mostly take the probing fallback above level 2.
// Faulted variants lower some up-degrees, so some walks start and then run
// out of budget.
func downSelTopologies(t *testing.T) []namedClos {
	t.Helper()
	out := []namedClos{
		{"rfc-3", randomFoldedClos(t, []int{16, 16, 8}, 2, 3)},
		{"rfc-4", randomFoldedClos(t, []int{16, 16, 16, 8}, 2, 4)},
		{"rfc-5", randomFoldedClos(t, []int{24, 12, 6, 3, 1}, 1, 5)},
		// One root over four doubly-linked level-2 switches: the walk
		// finds several distinct children, each over parallel links.
		{"rfc-wide-root", randomFoldedClos(t, []int{8, 4, 1}, 2, 7)},
	}
	for _, x := range []struct {
		name string
		m, w []int
	}{
		{"xgft-3", []int{2, 3, 8}, []int{1, 2, 2}},
		{"xgft-4", []int{2, 2, 3, 10}, []int{1, 2, 1, 2}},
		{"xgft-5", []int{2, 2, 2, 2, 12}, []int{1, 1, 2, 1, 2}},
	} {
		c, err := topology.NewXGFT(x.m, x.w, 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedClos{x.name, c})
	}
	for levels := 3; levels <= 5; levels++ {
		c, err := topology.NewCFT(4, levels)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedClos{fmt.Sprintf("cft-%d", levels), c})
	}
	return out
}

// TestDownSelectionMatchesReference checks NextDown, NextDownPort and
// NextDownPortHash against the reference model on every (switch, leaf)
// pair of healthy, faulted and parallel-link instances: the same choice,
// and the random stream left in the same state. It also checks that the
// destination-side frontier, not only the fallback, answered at every
// level from 2 to 5.
func TestDownSelectionMatchesReference(t *testing.T) {
	frontier := map[int]int{} // level -> calls the frontier answered
	for _, base := range downSelTopologies(t) {
		for _, v := range []namedClos{
			{"healthy", base.c},
			{"faulted", faultClos(t, base.c, 5, 1<<30)},
			{"parallel", duplicateLinks(base.c, 3)},
		} {
			c := v.c
			t.Run(base.name+"/"+v.name, func(t *testing.T) {
				u := New(c)
				n1 := c.LevelSize(1)
				got, want := rng.New(9), rng.New(9)
				for s := c.SwitchID(2, 0); int(s) < c.NumSwitches(); s++ {
					down := c.Down(s)
					for dst := 0; dst < n1; dst++ {
						var sc downScratch
						if _, ok := u.downFrontier(s, len(down), dst, &sc); ok {
							frontier[c.LevelOf(s)]++
						}
						wp := refNextDownPort(u, s, dst, want)
						if gp := u.NextDownPort(s, dst, got); gp != wp || *got != *want {
							t.Fatalf("NextDownPort(%d, %d) = %d, reference %d (streams equal: %v)", s, dst, gp, wp, *got == *want)
						}
						wc := int32(-1)
						if wp = refNextDownPort(u, s, dst, want); wp >= 0 {
							wc = down[wp]
						}
						if gc := u.NextDown(s, dst, got); gc != wc || *got != *want {
							t.Fatalf("NextDown(%d, %d) = %d, reference %d (streams equal: %v)", s, dst, gc, wc, *got == *want)
						}
						for _, key := range []uint32{0, 1, uint32(s)*31 + uint32(dst)*7} {
							if gh, wh := u.NextDownPortHash(s, dst, key), refNextDownPortHash(u, s, dst, key); gh != wh {
								t.Fatalf("NextDownPortHash(%d, %d, %d) = %d, reference %d", s, dst, key, gh, wh)
							}
						}
					}
				}
			})
		}
	}
	for lev := 2; lev <= 5; lev++ {
		if frontier[lev] == 0 {
			t.Errorf("no level-%d call was answered by the frontier", lev)
		}
	}
}
