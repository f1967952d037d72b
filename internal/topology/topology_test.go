package topology

import (
	"slices"
	"testing"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
)

func TestCFTFigure1(t *testing.T) {
	// Figure 1: the 4-commodity fat-tree (radix 4, 4 levels).
	c, err := NewCFT(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantSizes := []int{16, 16, 16, 8}
	for i, want := range wantSizes {
		if got := c.LevelSize(i + 1); got != want {
			t.Errorf("level %d size = %d, want %d", i+1, got, want)
		}
	}
	if c.Terminals() != 32 {
		t.Errorf("terminals = %d, want 32", c.Terminals())
	}
	if err := c.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
	if c.Wires() != 96 {
		t.Errorf("wires = %d, want 96", c.Wires())
	}
	// Diameter of the switch graph of an l-level fat-tree is 2(l-1).
	if d := c.SwitchGraph().Diameter(); d != 6 {
		t.Errorf("diameter = %d, want 6", d)
	}
}

func TestCFTPaperCounts(t *testing.T) {
	// §5: 3-level radix-36 CFT has 648 leaves, 11,664 terminals, 1,620
	// switches and 23,328 wires; the 4-level one has 40,824 switches and
	// 629,856 wires connecting 209,952 terminals.
	c3, err := NewCFT(36, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c3.LevelSize(1) != 648 || c3.Terminals() != 11664 {
		t.Errorf("3-level CFT: N1=%d T=%d, want 648/11664", c3.LevelSize(1), c3.Terminals())
	}
	if c3.NumSwitches() != 1620 || c3.Wires() != 23328 {
		t.Errorf("3-level CFT: switches=%d wires=%d, want 1620/23328", c3.NumSwitches(), c3.Wires())
	}
	if err := c3.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}

	c4, err := NewCFT(36, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c4.NumSwitches() != 40824 || c4.Wires() != 629856 || c4.Terminals() != 209952 {
		t.Errorf("4-level CFT: switches=%d wires=%d T=%d, want 40824/629856/209952",
			c4.NumSwitches(), c4.Wires(), c4.Terminals())
	}
}

func TestCFTErrors(t *testing.T) {
	if _, err := NewCFT(5, 3); err == nil {
		t.Error("odd radix should fail")
	}
	if _, err := NewCFT(4, 1); err == nil {
		t.Error("1 level should fail")
	}
}

func TestKaryTree(t *testing.T) {
	c, err := NewKaryTree(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	// k-ary l-tree: k^{l-1} switches per level, T = k^l.
	for i := 1; i <= 3; i++ {
		if got := c.LevelSize(i); got != 4 {
			t.Errorf("level %d size = %d, want 4", i, got)
		}
	}
	if c.Terminals() != 8 {
		t.Errorf("terminals = %d, want 8", c.Terminals())
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if d := c.SwitchGraph().Diameter(); d != 4 {
		t.Errorf("diameter = %d, want 4", d)
	}
	// CFT doubles the k-ary tree: with the same radix 4 and 3 levels the
	// CFT connects 2*(4/2)^3 = 16 > 8 terminals.
	cft, _ := NewCFT(4, 3)
	if cft.Terminals() != 2*c.Terminals() {
		t.Errorf("CFT should double k-ary tree terminals: %d vs %d", cft.Terminals(), c.Terminals())
	}
}

func TestOFTFigure2(t *testing.T) {
	// Figure 2: the 2-level OFT (order 2): 14 leaves, 7 roots, radix 6,
	// 3 terminals per leaf, T = 42.
	c, err := NewOFT(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.LevelSize(1) != 14 || c.LevelSize(2) != 7 {
		t.Errorf("OFT(2,2) sizes = %d/%d, want 14/7", c.LevelSize(1), c.LevelSize(2))
	}
	if c.Terminals() != 42 || c.Radix != 6 {
		t.Errorf("OFT(2,2): T=%d R=%d, want 42/6", c.Terminals(), c.Radix)
	}
	if err := c.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
	if d := leafDiameter(c); d != 2 {
		t.Errorf("leaf-to-leaf diameter = %d, want 2", d)
	}
}

// leafDiameter computes the maximum switch-graph distance between leaf
// switches — the quantity the paper calls the network diameter D.
func leafDiameter(c *Clos) int {
	g := c.SwitchGraph()
	n1 := c.LevelSize(1)
	max := 0
	for a := 0; a < n1; a++ {
		dist := g.BFS(int(c.SwitchID(1, a)), nil)
		for b := 0; b < n1; b++ {
			d := int(dist[c.SwitchID(1, b)])
			if d < 0 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

func TestOFTThreeLevels(t *testing.T) {
	for _, q := range []int{2, 3} {
		c, err := NewOFT(q, 3)
		if err != nil {
			t.Fatal(err)
		}
		n := q*q + q + 1
		if c.LevelSize(1) != 2*n*n || c.LevelSize(2) != 2*n*n || c.LevelSize(3) != n*n {
			t.Errorf("OFT(%d,3) sizes = %d/%d/%d", q, c.LevelSize(1), c.LevelSize(2), c.LevelSize(3))
		}
		if c.Terminals() != OFTTerminals(q, 3) {
			t.Errorf("OFT(%d,3): T=%d, want %d", q, c.Terminals(), OFTTerminals(q, 3))
		}
		if err := c.ValidateRadixRegular(); err != nil {
			t.Errorf("OFT(%d,3): %v", q, err)
		}
		if d := leafDiameter(c); d != 4 {
			t.Errorf("OFT(%d,3) leaf diameter = %d, want 4", q, d)
		}
	}
}

func TestOFTUniqueMinimalPaths2Level(t *testing.T) {
	// §3: "Minimal routes in the 2-level OFT are unique". Leaves on
	// opposite sides or with different points share exactly one root.
	c, err := NewOFT(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	n1 := c.LevelSize(1)
	for a := 0; a < n1; a++ {
		for b := a + 1; b < n1; b++ {
			sa, sb := c.SwitchID(1, a), c.SwitchID(1, b)
			// Count common roots.
			common := 0
			for _, ra := range c.Up(sa) {
				for _, rb := range c.Up(sb) {
					if ra == rb {
						common++
					}
				}
			}
			samePoint := (a >> 1) == (b >> 1) // same point digit, other side
			if samePoint {
				if common != 3+1 {
					t.Fatalf("same-point leaves %d,%d share %d roots, want q+1=4", a, b, common)
				}
			} else if common != 1 {
				t.Fatalf("leaves %d,%d share %d roots, want 1", a, b, common)
			}
		}
	}
}

func TestOFTErrors(t *testing.T) {
	if _, err := NewOFT(6, 2); err == nil {
		t.Error("q=6 (not a prime power) should fail")
	}
	if _, err := NewOFT(2, 1); err == nil {
		t.Error("1 level should fail")
	}
}

func TestXGFTErrors(t *testing.T) {
	if _, err := NewXGFT([]int{2}, []int{1}, 4); err == nil {
		t.Error("single level should fail")
	}
	if _, err := NewXGFT([]int{2, 2}, []int{2, 2}, 4); err == nil {
		t.Error("w[0] != 1 should fail")
	}
	if _, err := NewXGFT([]int{2, 0}, []int{1, 2}, 4); err == nil {
		t.Error("zero parameter should fail")
	}
}

func TestClosAccessors(t *testing.T) {
	c, err := NewCFT(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	// SwitchID / LevelOf / IndexInLevel round trip.
	for lev := 1; lev <= 3; lev++ {
		for idx := 0; idx < c.LevelSize(lev); idx++ {
			s := c.SwitchID(lev, idx)
			if c.LevelOf(s) != lev || c.IndexInLevel(s) != idx {
				t.Fatalf("roundtrip failed for level %d idx %d", lev, idx)
			}
		}
	}
	// Terminal attachment.
	if c.LeafOfTerminal(0) != 0 || c.LeafOfTerminal(c.TermsPerLeaf) != 1 {
		t.Error("LeafOfTerminal wrong")
	}
	if c.TotalPorts() != 2*c.Wires()+c.Terminals() {
		t.Error("TotalPorts inconsistent")
	}
}

func TestClosRemoveLinkAndClone(t *testing.T) {
	c, err := NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl := c.Clone()
	links := c.Links()
	if len(links) != c.Wires() {
		t.Fatalf("Links() returned %d, want %d", len(links), c.Wires())
	}
	l := links[0]
	if !c.RemoveLink(l.A, l.B) {
		t.Fatal("RemoveLink failed")
	}
	if c.RemoveLink(l.A, l.B) {
		t.Fatal("double remove succeeded")
	}
	if c.Wires() != len(links)-1 {
		t.Error("wire count not decremented")
	}
	if cl.Wires() != len(links) {
		t.Error("clone was affected by removal")
	}
}

func TestRRNBasics(t *testing.T) {
	r := rng.New(55)
	rr, err := NewRRN(50, 6, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Radix() != 9 || rr.Terminals() != 150 || rr.Wires() != 150 {
		t.Errorf("RRN: radix=%d T=%d wires=%d", rr.Radix(), rr.Terminals(), rr.Wires())
	}
	if !isRegularSimple(rr.G, 6) {
		t.Error("RRN graph not 6-regular simple")
	}
	if rr.Diameter() < 2 {
		t.Error("suspicious diameter")
	}
}

// isRegularSimple reports whether every vertex of g has degree d and g has
// no self-loops and no multi-edges.
func isRegularSimple(g *graph.Graph, d int) bool {
	for u := 0; u < g.N(); u++ {
		ns := g.Neighbors(u)
		if len(ns) != d {
			return false
		}
		for i, v := range ns {
			if v == int32(u) || slices.Contains(ns[:i], v) {
				return false
			}
		}
	}
	return true
}

func TestNewEmptyErrors(t *testing.T) {
	if _, err := NewEmpty([]int{4}, 2, 4); err == nil {
		t.Error("single level should fail")
	}
	if _, err := NewEmpty([]int{4, 0}, 2, 4); err == nil {
		t.Error("zero level size should fail")
	}
	if _, err := NewEmpty([]int{4, 4}, 0, 4); err == nil {
		t.Error("zero terminals per leaf should fail")
	}
}

func TestValidateCatchesBadWiring(t *testing.T) {
	c, err := NewEmpty([]int{2, 2}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// No links at all: leaves have no up-links.
	if err := c.Validate(); err == nil {
		t.Error("expected validation failure for unwired Clos")
	}
	c.AddLink(c.SwitchID(1, 0), c.SwitchID(2, 0))
	c.AddLink(c.SwitchID(1, 1), c.SwitchID(2, 1))
	if err := c.Validate(); err != nil {
		t.Errorf("valid wiring rejected: %v", err)
	}
	// Duplicate parallel link.
	c.AddLink(c.SwitchID(1, 0), c.SwitchID(2, 0))
	if err := c.Validate(); err == nil {
		t.Error("expected validation failure for parallel links")
	}
}
