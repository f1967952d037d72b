package routing

import (
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// randomFoldedClos wires a radix-regular folded Clos with uniformly random
// semi-regular bipartite stages — the same construction as core.Generate,
// rebuilt here because internal/core imports this package.
func randomFoldedClos(t *testing.T, sizes []int, half int, seed uint64) *topology.Clos {
	t.Helper()
	c, err := topology.NewEmpty(sizes, 1, 2*half)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for lev := 1; lev < len(sizes); lev++ {
		nA, nB := sizes[lev-1], sizes[lev]
		stubs := make([]int, 0, nA*half)
		for i := 0; i < nA; i++ {
			for k := 0; k < half; k++ {
				stubs = append(stubs, i)
			}
		}
		r.ShuffleInts(stubs)
		dB := nA * half / nB
		for j, a := range stubs {
			c.AddLink(c.SwitchID(lev, a), c.SwitchID(lev+1, j/dB))
		}
	}
	return c
}

// checkAgreement compares the succinct index against the dense one and the
// cover-set computation on every ordered leaf pair.
func checkAgreement(t *testing.T, u *UpDown, sx *SuccinctTurnIndex) {
	t.Helper()
	dense := NewMinTurnIndex(u)
	n := dense.Leaves()
	if sx.Leaves() != n {
		t.Fatalf("Leaves() = %d, want %d", sx.Leaves(), n)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			want := dense.MinTurn(src, dst)
			if got := sx.MinTurn(src, dst); got != want {
				t.Fatalf("succinct MinTurn(%d, %d) = %d, dense says %d", src, dst, got, want)
			}
		}
	}
	if sx.Routable() != dense.Routable() {
		t.Fatalf("Routable() = %v, dense says %v", sx.Routable(), dense.Routable())
	}
	if sx.UnreachablePairs() != dense.UnreachablePairs() {
		t.Fatalf("UnreachablePairs() = %d, dense says %d", sx.UnreachablePairs(), dense.UnreachablePairs())
	}
	if sx.UnreachablePairs() != int64(2*u.UnroutablePairs(0)) {
		t.Fatalf("UnreachablePairs() = %d, UnroutablePairs says %d unordered",
			sx.UnreachablePairs(), u.UnroutablePairs(0))
	}
}

// TestSuccinctMatchesDense is the same-answers property test the tentpole is
// pinned by: dense and succinct MinTurn agree on every ordered pair, for
// structured and randomized topologies, healthy and faulted.
func TestSuccinctMatchesDense(t *testing.T) {
	builds := []struct {
		name string
		c    *topology.Clos
	}{}
	add := func(name string, c *topology.Clos, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		builds = append(builds, struct {
			name string
			c    *topology.Clos
		}{name, c})
	}
	cft, err := topology.NewCFT(8, 3)
	add("cft-8-3", cft, err)
	xg, err := topology.NewXGFT([]int{4, 8, 6}, []int{1, 3, 2}, 16)
	add("xgft-3lvl", xg, err)
	add("rfc-3lvl", randomFoldedClos(t, []int{24, 12, 6}, 3, 101), nil)
	add("rfc-4lvl", randomFoldedClos(t, []int{16, 16, 8, 4}, 2, 202), nil)

	for _, tc := range builds {
		t.Run(tc.name, func(t *testing.T) {
			u := New(tc.c)
			checkAgreement(t, u, NewSuccinctTurnIndex(u))

			// Fault a third of the links (possibly disconnecting pairs or
			// whole leaves), rebuild, and re-check.
			r := rng.New(7)
			links := tc.c.Links()
			r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			for _, l := range links[:len(links)/3] {
				tc.c.RemoveLink(l.A, l.B)
			}
			u.Rebuild()
			checkAgreement(t, u, NewSuccinctTurnIndex(u))
		})
	}
}

// TestSuccinctSizeBytes checks the succinct encoding undercuts the dense
// table on a topology large enough for the asymptotics to show: a 4096-leaf
// XGFT, where exception rows are the size of one level-2 subtree.
func TestSuccinctSizeBytes(t *testing.T) {
	c, err := topology.NewXGFT([]int{4, 64, 64}, []int{1, 4, 2}, 72)
	if err != nil {
		t.Fatal(err)
	}
	u := New(c)
	sx := NewSuccinctTurnIndex(u)
	denseBytes := sx.Leaves() * sx.Leaves()
	if sx.SizeBytes()*8 > denseBytes {
		t.Fatalf("SizeBytes() = %d, want <= 12.5%% of dense %d", sx.SizeBytes(), denseBytes)
	}
	if sx.Tier() != "succinct" {
		t.Fatalf("Tier() = %q, want succinct", sx.Tier())
	}
}

// TestSuccinctDisconnectedLeaf covers the unreachable-majority row shape: a
// leaf with every up link removed can reach nobody and nobody reaches it.
func TestSuccinctDisconnectedLeaf(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	dead := c.SwitchID(1, 0)
	for _, p := range append([]int32(nil), c.Up(dead)...) {
		c.RemoveLink(dead, p)
	}
	u := New(c)
	sx := NewSuccinctTurnIndex(u)
	n := u.n1
	for dst := 1; dst < n; dst++ {
		if got := sx.MinTurn(0, dst); got != -1 {
			t.Fatalf("MinTurn(0, %d) = %d, want -1", dst, got)
		}
		if got := sx.MinTurn(dst, 0); got != -1 {
			t.Fatalf("MinTurn(%d, 0) = %d, want -1", dst, got)
		}
	}
	if sx.MinTurn(0, 0) != 0 {
		t.Fatal("MinTurn(0, 0) should stay 0 by convention")
	}
	if sx.Routable() {
		t.Fatal("Routable() = true with a disconnected leaf")
	}
	if want := int64(2 * (n - 1)); sx.UnreachablePairs() != want {
		t.Fatalf("UnreachablePairs() = %d, want %d", sx.UnreachablePairs(), want)
	}
	checkAgreement(t, u, sx)
}

// TestNewTurnIndexTierSelection pins the budget rule NewTurnIndex applies.
func TestNewTurnIndexTierSelection(t *testing.T) {
	c, err := topology.NewCFT(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	u := New(c)
	n := u.n1
	if got := NewTurnIndex(u, 0).Tier(); got != "dense" {
		t.Fatalf("budget 0 → %q, want dense (unlimited)", got)
	}
	if got := NewTurnIndex(u, n*n).Tier(); got != "dense" {
		t.Fatalf("budget n² → %q, want dense", got)
	}
	if got := NewTurnIndex(u, n*n-1).Tier(); got != "succinct" {
		t.Fatalf("budget n²-1 → %q, want succinct", got)
	}
}
