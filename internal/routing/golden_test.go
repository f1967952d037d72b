package routing_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"reflect"
	"slices"
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

// coverGolden is what the cover goldens record for one routed topology:
// the scalar summaries as they are, and for each bulk answer the first 16
// hex digits of its SHA-256. A failure names the field that moved.
type coverGolden struct {
	bytes      int    // CoverBytes
	repr       string // CoverRepr
	unroutable int    // UnroutablePairs(0)
	covers     string // every cover slot: nil, or its Count and member words
	minTurn    string // the all-pairs MinTurn table
	paths      string // PathAt from each source to 0, itself, n1-1-src and 7·src mod n1, on one stream seeded 77
}

// coverGoldens is keyed by topology/variant. It was captured while a
// plain-bitset copy of the routing core (one N1-bit set per slot) still ran
// beside the compressed covers and agreed with them on every quantity.
var coverGoldens = map[string]coverGolden{
	"cft-8-3/healthy":       {9600, "run:64 sparse:32 full:80", 0, "cc478cdf8f7a3251", "63093c3ad25ccae6", "5bc9e79c671fc6c2"},
	"xgft-4.8.6/healthy":    {9888, "run:66 sparse:48 full:72", 0, "1c5abdba56e32051", "78ed5ba0f6222a49", "052769f4c0908eed"},
	"xgft-4lev/healthy":     {22560, "run:204 sparse:72 full:120", 0, "c77496f9b25e0f08", "a5759088dc9406c8", "6ff46673e79c4d1b"},
	"rfc-48/healthy":        {15120, "sparse:48 comp:9 bits:110 full:97", 0, "b88d62d38e6927bb", "e7281f76943672e8", "3dd118c0b8e74ac5"},
	"rfc-irregular/healthy": {9872, "sparse:36 comp:10 bits:76 full:46", 0, "ceee24c175a02500", "2588dd0dcb24b1a1", "bc18c09a78b0e9a8"},
	"cft-8-3/light":         {11040, "run:60 sparse:32 comp:48 bits:4 full:32", 0, "5f8cac893f1e8ca4", "63093c3ad25ccae6", "8924458b7ba322c0"},
	"cft-8-3/heavy":         {9088, "run:48 sparse:32 full:52 empty:44", 0, "9bc62f3696c06b1e", "63093c3ad25ccae6", "3f07e7c78306a88b"},
	"xgft-4.8.6/light":      {10656, "run:60 sparse:48 comp:24 bits:6 full:48", 0, "a4ed3815466d4f07", "78ed5ba0f6222a49", "f696b626e8765c78"},
	"xgft-4.8.6/heavy":      {12096, "sparse:48 bits:135 empty:3", 576, "9ad1608edbecd986", "ffa622cebe62c759", "cf94b78a3913f55e"},
	"xgft-4lev/light":       {24696, "run:186 sparse:72 comp:54 bits:18 full:66", 9, "f64f97dee87bad99", "ca49f948e1f02faf", "b2ee713895bffded"},
	"xgft-4lev/heavy":       {21504, "run:171 sparse:72 full:89 empty:64", 0, "696551e53b6a10e4", "a5759088dc9406c8", "8b7d504d6dea537b"},
	"rfc-48/light":          {15148, "sparse:48 comp:9 bits:111 full:96", 0, "10101dd621dbfaab", "5a4521cb49c65af4", "2745e40ff6ada234"},
	"rfc-48/heavy":          {16400, "sparse:56 comp:22 bits:130 full:55 empty:1", 0, "ff7738e0e920a9c1", "95f928c2a385b39e", "4184af11588bfb5b"},
	"rfc-irregular/light":   {10016, "sparse:36 comp:15 bits:76 full:41", 0, "746fc74ca2712293", "4501a7303accd06c", "e3feaef98dc9a6c1"},
	"rfc-irregular/heavy":   {11332, "sparse:45 comp:2 bits:120 empty:1", 163, "5fa72bbebc4b0cc5", "3fd1b64cbcfdab91", "49ca6d802745a765"},
}

// namedClos is one named test topology.
type namedClos struct {
	name string
	c    *topology.Clos
}

// equivTopologies returns the fabrics the cover goldens run over: structured
// CFT/XGFT (leaf-range fast path) and random folded Clos instances (builder
// unions).
func equivTopologies(t *testing.T) []namedClos {
	t.Helper()
	must := func(c *topology.Clos, err error) *topology.Clos {
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	return []namedClos{
		{"cft-8-3", must(topology.NewCFT(8, 3))},
		{"xgft-4.8.6", must(topology.NewXGFT([]int{4, 8, 6}, []int{1, 3, 2}, 16))},
		{"xgft-4lev", must(topology.NewXGFT([]int{2, 6, 4, 3}, []int{1, 2, 2, 3}, 10))},
		{"rfc-48", routing.RandomFoldedClos(t, []int{48, 48, 24}, 8, 5)},
		{"rfc-irregular", routing.RandomFoldedClos(t, []int{36, 24, 12}, 4, 9)},
	}
}

// sum16 returns the first 16 hex digits of h's digest.
func sum16(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil))[:16] }

// writeMinTurns writes the all-pairs MinTurn table, one source per line.
func writeMinTurns(w io.Writer, u *routing.UpDown, n1 int) {
	for src := 0; src < n1; src++ {
		for dst := 0; dst < n1; dst++ {
			fmt.Fprint(w, u.MinTurn(src, dst), " ")
		}
		fmt.Fprintln(w)
	}
}

// checkCoverGolden routes c and compares what coverGolden records with
// coverGoldens[label], naming each quantity that moved.
func checkCoverGolden(t *testing.T, label string, c *topology.Clos) {
	t.Helper()
	u := routing.New(c)
	n1 := c.LevelSize(1)
	covers, minTurn, paths := sha256.New(), sha256.New(), sha256.New()
	buf := routing.NewBitset(n1)
	for r := 0; r < c.Levels(); r++ {
		for s := range int32(c.NumSwitches()) {
			if cov := u.Cover(r, s); cov == nil {
				fmt.Fprintln(covers, "nil")
			} else {
				buf.Clear()
				cov.OrInto(buf)
				fmt.Fprintln(covers, cov.Count(), buf)
			}
		}
	}
	writeMinTurns(minTurn, u, n1)
	r := rng.New(77)
	for src := 0; src < n1; src++ {
		for _, dst := range []int{0, src, n1 - 1 - src, (src * 7) % n1} {
			fmt.Fprintln(paths, u.PathAt(src, dst, u.MinTurn(src, dst), r))
		}
	}
	got := coverGolden{u.CoverBytes(), u.CoverRepr(), u.UnroutablePairs(0), sum16(covers), sum16(minTurn), sum16(paths)}

	gv, wv := reflect.ValueOf(got), reflect.ValueOf(coverGoldens[label])
	for i := range gv.NumField() {
		if g, w := fmt.Sprint(gv.Field(i)), fmt.Sprint(wv.Field(i)); g != w {
			t.Errorf("%s: %s = %s, want %s", label, gv.Type().Field(i).Name, g, w)
		}
	}
}

// TestHybridEquivalenceHealthy pins the compressed covers and everything
// routed from them on healthy fabrics.
func TestHybridEquivalenceHealthy(t *testing.T) {
	for _, tc := range equivTopologies(t) {
		t.Run(tc.name, func(t *testing.T) { checkCoverGolden(t, tc.name+"/healthy", tc.c) })
	}
}

// TestHybridEquivalenceFaulted pins them after removing links: covers lose
// their interval shape, leaf-range hints drop and some pairs go unroutable.
func TestHybridEquivalenceFaulted(t *testing.T) {
	for _, tc := range equivTopologies(t) {
		t.Run(tc.name+"/light", func(t *testing.T) { checkCoverGolden(t, tc.name+"/light", routing.FaultClos(t, tc.c, 7, 6)) })
		t.Run(tc.name+"/heavy", func(t *testing.T) { checkCoverGolden(t, tc.name+"/heavy", routing.FaultClos(t, tc.c, 2, 1<<30)) })
	}
}

// TestHybridEquivalenceIncrementalRebuild faults one topology in place four
// times, rebuilding the same router after each round: Rebuild must start
// from the topology, not from stale compressed state.
func TestHybridEquivalenceIncrementalRebuild(t *testing.T) {
	c := routing.RandomFoldedClos(t, []int{24, 24, 12}, 6, 3)
	u := routing.New(c)
	h := sha256.New()
	k := 0
	for round := 0; round < 4; round++ {
		removed := 0
		for s := int32(0); int(s) < c.NumSwitches() && removed < 2; s++ {
			for _, p := range slices.Clone(c.Up(s)) {
				if k++; k%3 == 0 && c.RemoveLink(s, p) {
					removed++
					break
				}
			}
		}
		u.Rebuild()
		fmt.Fprintln(h, "round", round)
		writeMinTurns(h, u, c.LevelSize(1))
	}
	const want = "95b1a8bd62befe787f40d0009594937fab16b02ee3170dd6b8adbb3043d1b6cc"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("MinTurn tables over the rebuild rounds: digest = %s, want %s", got, want)
	}
}
