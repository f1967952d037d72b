package topology

import (
	"testing"
	"testing/quick"

	"rfclos/internal/graph"
)

func TestOFTFourLevels(t *testing.T) {
	// q = 2, l = 4: levels 2·343/2·343/2·343/343, T = 2·3·343 = 2058.
	c, err := NewOFT(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Terminals() != OFTTerminals(2, 4) || c.Terminals() != 2058 {
		t.Errorf("OFT(2,4) terminals = %d, want 2058", c.Terminals())
	}
	if err := c.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
	if d := leafDiameter(c); d != 6 {
		t.Errorf("OFT(2,4) leaf diameter = %d, want 6", d)
	}
}

func TestXGFTProperty(t *testing.T) {
	// For any valid (m, w) with w[0] = 1, the XGFT is a well-formed Clos:
	// every mid switch has m_i down and w_{i+1} up links; leaf count and
	// terminal count follow the product formulas.
	f := func(m2Raw, w2Raw, m3Raw, w3Raw uint8) bool {
		m := []int{int(m2Raw%3) + 1, int(w2Raw%3) + 1, int(m3Raw%3) + 1}
		w := []int{1, int(w3Raw%3) + 1, int(m2Raw%2) + 1}
		c, err := NewXGFT(m, w, 64)
		if err != nil {
			return false
		}
		if err := c.Validate(); err != nil {
			return false
		}
		// Check per-level degrees.
		for lev := 1; lev <= 3; lev++ {
			for i := 0; i < c.LevelSize(lev); i++ {
				s := c.SwitchID(lev, i)
				if lev < 3 && len(c.Up(s)) != w[lev] {
					return false
				}
				if lev > 1 && len(c.Down(s)) != m[lev-1] {
					return false
				}
			}
		}
		// Terminal count = product of m.
		want := m[0] * m[1] * m[2]
		return c.Terminals() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestXGFTFatTreeRecursion(t *testing.T) {
	// Definition 3.2: removing the top level splits a fat-tree into k_l
	// disjoint subtrees. Verify on the radix-6 3-level CFT: removing the
	// roots must yield exactly k_3 = R = 6 components.
	c, err := NewCFT(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := c.SwitchGraph()
	// Delete all root switches' links.
	top := c.Levels()
	for i := 0; i < c.LevelSize(top); i++ {
		s := c.SwitchID(top, i)
		for _, d := range c.Down(s) {
			g.RemoveEdge(int(s), int(d))
		}
	}
	comps := components(g)
	// Components: k_l subtrees plus the now-isolated root switches.
	nonTrivial := 0
	for _, comp := range comps {
		if len(comp) > 1 {
			nonTrivial++
		}
	}
	if nonTrivial != 6 {
		t.Errorf("CFT(6,3) splits into %d subtrees without its roots, want k_l = 6", nonTrivial)
	}
}

func TestOFTFatTreeRecursion(t *testing.T) {
	// Same recursion check for the OFT: k_l = 2(q²+q+1) disjoint subtrees.
	q := 3
	c, err := NewOFT(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := c.SwitchGraph()
	top := c.Levels()
	for i := 0; i < c.LevelSize(top); i++ {
		s := c.SwitchID(top, i)
		for _, d := range c.Down(s) {
			g.RemoveEdge(int(s), int(d))
		}
	}
	nonTrivial := 0
	for _, comp := range components(g) {
		if len(comp) > 1 {
			nonTrivial++
		}
	}
	want := 2 * (q*q + q + 1)
	if nonTrivial != want {
		t.Errorf("OFT(%d,3) splits into %d subtrees, want k_l = %d", q, nonTrivial, want)
	}
}

// components returns the vertex sets of g's connected components.
func components(g *graph.Graph) [][]int32 {
	comp := make([]int32, g.N())
	for i := range comp {
		comp[i] = -1
	}
	var out [][]int32
	for s := 0; s < g.N(); s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(out))
		comp[s] = id
		members := []int32{int32(s)}
		for head := 0; head < len(members); head++ {
			for _, v := range g.Neighbors(int(members[head])) {
				if comp[v] < 0 {
					comp[v] = id
					members = append(members, v)
				}
			}
		}
		out = append(out, members)
	}
	return out
}
