package routing

import (
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// buildTestClos wires a small 3-level CFT, which is routable by
// construction, for index comparisons.
func buildTestClos(t *testing.T) *topology.Clos {
	t.Helper()
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMinTurnIndexMatchesMinTurn checks the precomputed table agrees with
// the cover-set computation on every ordered leaf pair, on a healthy
// network and on a faulted one (where some pairs may lose their path).
func TestMinTurnIndexMatchesMinTurn(t *testing.T) {
	c := buildTestClos(t)
	u := New(c)
	check := func() {
		ix := NewMinTurnIndex(u)
		n := c.LevelSize(1)
		if ix.Leaves() != n {
			t.Fatalf("Leaves() = %d, want %d", ix.Leaves(), n)
		}
		if ix.SizeBytes() != n*n {
			t.Fatalf("SizeBytes() = %d, want %d", ix.SizeBytes(), n*n)
		}
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if got, want := ix.MinTurn(src, dst), u.MinTurn(src, dst); got != want {
					t.Fatalf("MinTurn(%d, %d) = %d, want %d", src, dst, got, want)
				}
			}
		}
	}
	check()

	// Knock out links until routability degrades, then re-check agreement.
	r := rng.New(7)
	links := c.Links()
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links[:len(links)/3] {
		c.RemoveLink(l.A, l.B)
	}
	u.Rebuild()
	check()
}

// TestPathAtMatchesPath pins PathAt as the Path decomposition: with the same
// rng stream and the true turn level they must produce identical paths.
func TestPathAtMatchesPath(t *testing.T) {
	c := buildTestClos(t)
	u := New(c)
	ix := NewMinTurnIndex(u)
	n := c.LevelSize(1)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p1 := u.Path(src, dst, rng.New(42))
			p2 := u.PathAt(src, dst, ix.MinTurn(src, dst), rng.New(42))
			if len(p1) != len(p2) {
				t.Fatalf("path lengths differ for %d->%d: %v vs %v", src, dst, p1, p2)
			}
			for i := range p1 {
				if p1[i] != p2[i] {
					t.Fatalf("paths differ for %d->%d: %v vs %v", src, dst, p1, p2)
				}
			}
		}
	}
	if u.PathAt(0, 1, -1, rng.New(1)) != nil {
		t.Fatal("PathAt with negative turn should return nil")
	}
}
