package routing_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// goldenPairs is how many seeded leaf pairs TestPathAtGolden hashes per
// topology.
const goldenPairs = 4096

// xgft64K builds the 65,536-leaf XGFT rfcd's query benchmark serves: 16
// top switches with 8,192 children each.
func xgft64K(tb testing.TB) (*topology.Clos, *routing.UpDown) {
	tb.Helper()
	c, err := topology.NewXGFT([]int{4, 8, 8192}, []int{1, 8, 2}, 8192)
	if err != nil {
		tb.Fatal(err)
	}
	return c, routing.New(c)
}

// rfc648 builds the 648-leaf, radix-36, 3-level RFC of the same benchmark.
func rfc648(tb testing.TB) (*topology.Clos, *routing.UpDown) {
	tb.Helper()
	c, u, _, err := core.GenerateRoutable(core.Params{Radix: 36, Levels: 3, Leaves: 648}, 50, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	return c, u
}

// goldenPair returns the i-th seeded pair: even i draw both leaves
// uniformly (almost always a top turn on the XGFT), odd i keep dst in
// src's aligned group of eight leaves (a lower turn).
func goldenPair(r *rng.Rand, i, n1 int) (src, dst int) {
	src = r.Intn(n1)
	if i%2 == 0 {
		return src, r.Intn(n1)
	}
	return src, min(src&^7|r.Intn(8), n1-1)
}

// TestPathAtGolden pins the switch sequences PathAt draws for seeded
// pairs on the two benchmark fabrics where down-hop selection matters
// most: the wide-rooted XGFT and the random RFC. The hashes were captured
// from the child-probing selector; any change to which down port is picked
// or how many draws a hop consumes moves them.
func TestPathAtGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) (*topology.Clos, *routing.UpDown)
		want  string
	}{
		{"xgft-64K", xgft64K, "020ccf901b2d3d446a0e4ffe4e591ef8c8185c3ed5c680fcd8375863ea8d85ee"},
		{"rfc-648", rfc648, "9f5b8db7f92189df2b190ac75c9cf457c2deb88378abe0c7b2232853060696db"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, u := tc.build(t)
			n1 := c.LevelSize(1)
			pairs := rng.At(11, rng.StringCoord("routing/golden-pairs"))
			coord := rng.StringCoord("routing/golden-path")
			h := sha256.New()
			var word [4]byte
			for i := 0; i < goldenPairs; i++ {
				src, dst := goldenPair(pairs, i, n1)
				p := u.PathAt(src, dst, u.MinTurn(src, dst), rng.At(7, coord, uint64(src), uint64(dst)))
				binary.LittleEndian.PutUint32(word[:], uint32(len(p)))
				h.Write(word[:])
				for _, s := range p {
					binary.LittleEndian.PutUint32(word[:], uint32(s))
					h.Write(word[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("PathAt hash = %s, want %s", got, tc.want)
			}
		})
	}
}
