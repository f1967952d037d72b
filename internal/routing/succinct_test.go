package routing

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
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
// structured and randomized topologies (including sub-threshold RFCs whose
// rows are mostly unreachable), each healthy and with 1/50, 1/10 and 1/3 of
// the links removed.
func TestSuccinctMatchesDense(t *testing.T) {
	type build struct {
		name     string
		c        *topology.Clos
		mostlyUn bool // some healthy row's majority class must be "unreachable"
	}
	var builds []build
	add := func(name string, c *topology.Clos, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		builds = append(builds, build{name: name, c: c})
	}
	cft, err := topology.NewCFT(8, 3)
	add("cft-8-3", cft, err)
	cft64, err := topology.NewCFT(6, 4)
	add("cft-6-4", cft64, err)
	xg, err := topology.NewXGFT([]int{4, 8, 6}, []int{1, 3, 2}, 16)
	add("xgft-3lvl", xg, err)
	xg4096, err := topology.NewXGFT([]int{4, 64, 64}, []int{1, 4, 2}, 72)
	add("xgft-4096", xg4096, err)
	add("rfc-3lvl", randomFoldedClos(t, []int{24, 12, 6}, 3, 101), nil)
	add("rfc-48", randomFoldedClos(t, []int{48, 48, 24}, 8, 5), nil)
	add("rfc-4lvl", randomFoldedClos(t, []int{16, 16, 8, 4}, 2, 202), nil)
	builds = append(builds,
		build{"rfc-3lvl-sub", randomFoldedClos(t, []int{256, 256, 128}, 2, 303), true},
		build{"rfc-4lvl-sub", randomFoldedClos(t, []int{128, 128, 128, 64}, 2, 404), true})

	for _, tc := range builds {
		t.Run(tc.name, func(t *testing.T) {
			u := New(tc.c)
			sx := NewSuccinctTurnIndex(u)
			checkAgreement(t, u, sx)
			if tc.mostlyUn && !slices.ContainsFunc(sx.rows, func(r succinctRow) bool {
				return r.majority == nibbleUnreachable
			}) {
				t.Fatal("no row has an unreachable majority")
			}

			// Fault a share of the links (possibly disconnecting pairs or
			// whole leaves), rebuild, and re-check.
			r := rng.New(7)
			for _, div := range []int{50, 10, 3} {
				t.Run(fmt.Sprintf("cut1of%d", div), func(t *testing.T) {
					f := tc.c.Clone()
					links := f.Links()
					r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
					for _, l := range links[:len(links)/div] {
						f.RemoveLink(l.A, l.B)
					}
					u := New(f)
					checkAgreement(t, u, NewSuccinctTurnIndex(u))
				})
			}
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

// hashRows returns a SHA-256 over every row of ix: majority code, sparse
// ids, exception bitset words, rank directory and packed codes, each slice
// prefixed by its length so nil and empty rows hash apart from shifted
// neighbours.
func hashRows(ix *SuccinctTurnIndex) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, row := range ix.rows {
		put(uint64(row.majority))
		put(uint64(len(row.sparse)))
		for _, id := range row.sparse {
			put(uint64(id))
		}
		put(uint64(len(row.bits)))
		for _, x := range row.bits {
			put(x)
		}
		put(uint64(len(row.rank)))
		for _, x := range row.rank {
			put(uint64(x))
		}
		put(uint64(len(row.codes)))
		h.Write(row.codes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSuccinctGolden64K pins the succinct index of the 65,536-leaf XGFT
// rfcd's query benchmark serves: the row hash and SizeBytes were captured
// from the earlier N1-bit word-sweep builder, so any change to row encoding
// shows here.
func TestSuccinctGolden64K(t *testing.T) {
	if testing.Short() {
		t.Skip("64K-leaf index build skipped in -short mode")
	}
	c, err := topology.NewXGFT([]int{4, 8, 8192}, []int{1, 8, 2}, 8192)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewSuccinctTurnIndex(New(c))
	if got, want := ix.SizeBytes(), 8912896; got != want {
		t.Errorf("SizeBytes() = %d, want %d", got, want)
	}
	if got, want := hashRows(ix), "5453042d7570445b870638a3b5896fd3b68b613100a3d63a14b31e2a58fd94ba"; got != want {
		t.Errorf("row hash = %s, want %s", got, want)
	}
}
