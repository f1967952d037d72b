package routing

import (
	"slices"
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// This file pins the LeafSet refactor against the pre-compression
// representation: plainCovers/plainMinTurn/plainPathAt below are the old
// plain-bitset routing core kept verbatim as a reference, and the property
// tests assert the hybrid-container router answers identically — covers,
// MinTurn, paths (byte-identical rng consumption) and index builds — on
// CFT, XGFT and random folded Clos topologies, healthy and faulted.

// plainCovers recomputes every descendant and cover set the way the old
// UpDown.Rebuild did: one N1-bit bitset per set, whole levels materialised.
func plainCovers(c *topology.Clos) [][]Bitset {
	l := c.Levels()
	n1 := c.LevelSize(1)
	total := c.NumSwitches()
	cover := make([][]Bitset, l)

	desc := make([]Bitset, total)
	for i := 0; i < n1; i++ {
		s := c.SwitchID(1, i)
		desc[s] = NewBitset(n1)
		desc[s].Set(i)
	}
	for lev := 2; lev <= l; lev++ {
		for i := 0; i < c.LevelSize(lev); i++ {
			s := c.SwitchID(lev, i)
			d := NewBitset(n1)
			for _, ch := range c.Down(s) {
				d.Or(desc[ch])
			}
			desc[s] = d
		}
	}
	cover[0] = desc

	for r := 1; r < l; r++ {
		cov := make([]Bitset, total)
		prev := cover[r-1]
		for lev := 1; lev <= l-r; lev++ {
			for i := 0; i < c.LevelSize(lev); i++ {
				s := c.SwitchID(lev, i)
				b := NewBitset(n1)
				for _, p := range c.Up(s) {
					if prev[p] != nil {
						b.Or(prev[p])
					}
				}
				cov[s] = b
			}
		}
		cover[r] = cov
	}
	return cover
}

// plainMinTurn is the old cover-set MinTurn over plain bitsets.
func plainMinTurn(c *topology.Clos, cover [][]Bitset, src, dst int) int {
	if src == dst {
		return 0
	}
	s := c.SwitchID(1, src)
	for r := 1; r < len(cover); r++ {
		if cov := cover[r][s]; cov != nil && cov.Get(dst) {
			return r
		}
	}
	return -1
}

// plainPathAt is the old PathAt: reservoir-sampled up/down hops over
// plain bitsets, consuming the rng in exactly the old order.
func plainPathAt(c *topology.Clos, cover [][]Bitset, src, dst, turn int, r *rng.Rand) []int32 {
	if turn < 0 {
		return nil
	}
	cur := c.SwitchID(1, src)
	path := []int32{cur}
	for rem := turn; rem > 0; rem-- {
		prev := cover[rem-1]
		chosen := int32(-1)
		count := 0
		for _, p := range c.Up(cur) {
			if cov := prev[p]; cov != nil && cov.Get(dst) {
				count++
				if count == 1 || r.Intn(count) == 0 {
					chosen = p
				}
			}
		}
		if chosen < 0 {
			return nil
		}
		cur = chosen
		path = append(path, cur)
	}
	for c.LevelOf(cur) > 1 {
		desc := cover[0]
		chosen := int32(-1)
		count := 0
		for _, ch := range c.Down(cur) {
			if desc[ch].Get(dst) {
				count++
				if count == 1 || r.Intn(count) == 0 {
					chosen = ch
				}
			}
		}
		if chosen < 0 {
			return nil
		}
		cur = chosen
		path = append(path, cur)
	}
	return path
}

// equivTopologies returns the named topology set the equivalence properties
// run over: structured CFT/XGFT (leaf-range fast path) and random folded
// Clos instances (builder union path).
func equivTopologies(t *testing.T) []struct {
	name string
	c    *topology.Clos
} {
	t.Helper()
	cft, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	xg, err := topology.NewXGFT([]int{4, 8, 6}, []int{1, 3, 2}, 16)
	if err != nil {
		t.Fatal(err)
	}
	xg2, err := topology.NewXGFT([]int{2, 6, 4, 3}, []int{1, 2, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		c    *topology.Clos
	}{
		{"cft-8-3", cft},
		{"xgft-4.8.6", xg},
		{"xgft-4lev", xg2},
		{"rfc-48", randomFoldedClos(t, []int{48, 48, 24}, 8, 5)},
		{"rfc-irregular", randomFoldedClos(t, []int{36, 24, 12}, 4, 9)},
	}
}

// faultClos clones c and removes a deterministic sample of inter-switch
// links (every stride-th up-link, capped), returning the faulted clone.
// Removing links also exercises the leaf-range invalidation path.
func faultClos(t *testing.T, c *topology.Clos, stride, max int) *topology.Clos {
	t.Helper()
	f := c.Clone()
	removed := 0
	k := 0
	total := f.NumSwitches()
	for s := int32(0); int(s) < total && removed < max; s++ {
		ups := slices.Clone(f.Up(s))
		for _, p := range ups {
			if k++; k%stride == 0 {
				if f.RemoveLink(s, p) {
					removed++
					if removed >= max {
						break
					}
				}
			}
		}
	}
	if removed == 0 {
		t.Fatalf("faultClos removed no links (stride %d)", stride)
	}
	return f
}

// checkEquivalence asserts the hybrid router's state and answers match the
// plain-bitset reference on c: cover structure, membership, MinTurn for all
// pairs, descendant sets, unroutable-pair counts, byte-identical PathAt
// streams, and the dense + succinct index builds.
func checkEquivalence(t *testing.T, c *topology.Clos) {
	t.Helper()
	u := New(c)
	ref := plainCovers(c)
	n1 := c.LevelSize(1)

	// Cover structure and membership: same nil pattern, same bits.
	if len(u.cover) != len(ref) {
		t.Fatalf("cover levels = %d, want %d", len(u.cover), len(ref))
	}
	buf := NewBitset(n1)
	for r := range ref {
		for s := range ref[r] {
			hyb := u.cover[r][s]
			if (hyb == nil) != (ref[r][s] == nil) {
				t.Fatalf("cover[%d][%d] nil-ness: hybrid %v, plain %v", r, s, hyb == nil, ref[r][s] == nil)
			}
			if hyb == nil {
				continue
			}
			if got, want := hyb.Count(), ref[r][s].Count(); got != want {
				t.Fatalf("cover[%d][%d] Count = %d, want %d (repr %s)", r, s, got, want, hyb.Repr())
			}
			buf.Clear()
			hyb.OrInto(buf)
			for w := range buf {
				if buf[w] != ref[r][s][w] {
					t.Fatalf("cover[%d][%d] word %d differs (repr %s)", r, s, w, hyb.Repr())
				}
			}
		}
	}

	// Descendant accessor agrees with plain desc.
	for i := 0; i < c.LevelSize(2); i++ {
		s := c.SwitchID(2, i)
		d := descendants(u, s)
		for leaf := 0; leaf < n1; leaf++ {
			if d.Get(leaf) != ref[0][s].Get(leaf) {
				t.Fatalf("Descendants(%d).Get(%d) diverges", s, leaf)
			}
		}
	}

	// MinTurn equality on all ordered pairs, and the dense index built from
	// the hybrid covers matches the plain reference too.
	dense := NewMinTurnIndex(u)
	for src := 0; src < n1; src++ {
		for dst := 0; dst < n1; dst++ {
			want := plainMinTurn(c, ref, src, dst)
			if got := u.MinTurn(src, dst); got != want {
				t.Fatalf("MinTurn(%d, %d) = %d, plain says %d", src, dst, got, want)
			}
			if got := dense.MinTurn(src, dst); got != want {
				t.Fatalf("dense index MinTurn(%d, %d) = %d, plain says %d", src, dst, got, want)
			}
		}
	}

	// The succinct index build consumes covers via Fill; checkAgreement
	// compares it against the dense index and UnroutablePairs.
	checkAgreement(t, u, NewSuccinctTurnIndex(u))

	// Paths must be byte-identical: the hybrid Get answers match, so the
	// reservoir sampling consumes the rng identically.
	r1 := rng.New(77)
	r2 := rng.New(77)
	for src := 0; src < n1; src++ {
		for _, dst := range []int{0, src, n1 - 1 - src%n1, (src * 7) % n1} {
			turn := plainMinTurn(c, ref, src, dst)
			got := u.PathAt(src, dst, turn, r1)
			want := plainPathAt(c, ref, src, dst, turn, r2)
			if !slices.Equal(got, want) {
				t.Fatalf("PathAt(%d, %d, %d) = %v, plain says %v", src, dst, turn, got, want)
			}
		}
	}

	// UnroutablePairs agrees with a plain-cover recount.
	plainUnroutable := 0
	acc := NewBitset(n1)
	for i := 0; i < n1; i++ {
		s := c.SwitchID(1, i)
		acc.Clear()
		for r := 1; r < len(ref); r++ {
			if cov := ref[r][s]; cov != nil {
				acc.Or(cov)
			}
		}
		acc.Set(i)
		for j := i + 1; j < n1; j++ {
			if !acc.Get(j) {
				plainUnroutable++
			}
		}
	}
	if got := u.UnroutablePairs(0); got != plainUnroutable {
		t.Fatalf("UnroutablePairs = %d, plain says %d", got, plainUnroutable)
	}

	// Memory accounting is unified: SizeBytes is CoverBytes is the stats
	// figure, and the repr histogram accounts for every set.
	if u.SizeBytes() != u.CoverBytes() {
		t.Fatalf("SizeBytes %d != CoverBytes %d", u.SizeBytes(), u.CoverBytes())
	}
	if repr := u.CoverRepr(); repr == "" || repr == "none" {
		t.Fatalf("CoverRepr = %q for a built router", repr)
	}
}

// TestHybridEquivalenceHealthy runs the equivalence properties on healthy
// topologies (leaf-range fast path for CFT/XGFT, builder unions for RFC).
func TestHybridEquivalenceHealthy(t *testing.T) {
	for _, tc := range equivTopologies(t) {
		t.Run(tc.name, func(t *testing.T) { checkEquivalence(t, tc.c) })
	}
}

// TestHybridEquivalenceFaulted re-runs the properties after removing links:
// covers lose the interval shape, leaf-range hints are invalidated, and
// some pairs may become unroutable — the hybrid must track the plain
// reference through all of it.
func TestHybridEquivalenceFaulted(t *testing.T) {
	for _, tc := range equivTopologies(t) {
		t.Run(tc.name+"/light", func(t *testing.T) {
			checkEquivalence(t, faultClos(t, tc.c, 7, 6))
		})
		t.Run(tc.name+"/heavy", func(t *testing.T) {
			checkEquivalence(t, faultClos(t, tc.c, 2, 1<<30))
		})
	}
}

// TestHybridEquivalenceIncrementalRebuild mutates one topology repeatedly —
// fault, rebuild, fault again, rebuild — asserting the router re-derives
// the reference state each time (Rebuild starts from the topology, not from
// stale compressed state).
func TestHybridEquivalenceIncrementalRebuild(t *testing.T) {
	c := randomFoldedClos(t, []int{24, 24, 12}, 6, 3)
	u := New(c)
	k := 0
	for round := 0; round < 4; round++ {
		// Remove a couple of links in place, then rebuild the same router.
		removed := 0
		total := c.NumSwitches()
		for s := int32(0); int(s) < total && removed < 2; s++ {
			ups := slices.Clone(c.Up(s))
			for _, p := range ups {
				if k++; k%3 == 0 && c.RemoveLink(s, p) {
					removed++
					break
				}
			}
		}
		u.Rebuild()
		ref := plainCovers(c)
		n1 := c.LevelSize(1)
		for src := 0; src < n1; src++ {
			for dst := 0; dst < n1; dst++ {
				if got, want := u.MinTurn(src, dst), plainMinTurn(c, ref, src, dst); got != want {
					t.Fatalf("round %d: MinTurn(%d, %d) = %d, plain says %d", round, src, dst, got, want)
				}
			}
		}
	}
}
