package core

import (
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
)

func TestGeneralParamsValidate(t *testing.T) {
	good := GeneralParams{TermsPerLeaf: 4, Sizes: []int{12, 8, 6}, UpDeg: []int{4, 3}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid general params rejected: %v", err)
	}
	bad := []GeneralParams{
		{TermsPerLeaf: 4, Sizes: []int{12}, UpDeg: nil},                // one level
		{TermsPerLeaf: 4, Sizes: []int{12, 8}, UpDeg: []int{4, 3}},     // degree count
		{TermsPerLeaf: 0, Sizes: []int{12, 8}, UpDeg: []int{4}},        // no terminals
		{TermsPerLeaf: 4, Sizes: []int{12, 8}, UpDeg: []int{5}},        // 60 % 8 != 0
		{TermsPerLeaf: 4, Sizes: []int{12, 8}, UpDeg: []int{9}},        // up-degree > level above
		{TermsPerLeaf: 4, Sizes: []int{4, 16}, UpDeg: []int{8}},        // down-degree 2 fine... adjusted below
		{TermsPerLeaf: 4, Sizes: []int{2, 16, 2}, UpDeg: []int{16, 1}}, // up 16 > size16 ok? equals; 2*16/16=2 down> size1? no... make invalid: see next
		{TermsPerLeaf: 4, Sizes: []int{2, 1}, UpDeg: []int{2}},         // up 2 > size 1
	}
	for i, p := range bad {
		if i == 5 || i == 6 {
			continue // constructed cases that are actually feasible; skip
		}
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v) should fail validation", i, p)
		}
	}
}

func TestGenerateGeneralUnequalLevels(t *testing.T) {
	// A tapered folded Clos: 16 leaves, 8 mid switches, 4 roots.
	p := GeneralParams{TermsPerLeaf: 2, Sizes: []int{16, 8, 4}, UpDeg: []int{3, 2}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	c, err := GenerateGeneral(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Error(err)
	}
	if c.Terminals() != 32 {
		t.Errorf("terminals = %d, want 32", c.Terminals())
	}
	// Degree checks: leaves 3 up; mid 16*3/8 = 6 down, 2 up; roots 8*2/4 =
	// 4 down.
	if got := len(c.Up(c.SwitchID(1, 0))); got != 3 {
		t.Errorf("leaf up-degree = %d, want 3", got)
	}
	mid := c.SwitchID(2, 0)
	if len(c.Down(mid)) != 6 || len(c.Up(mid)) != 2 {
		t.Errorf("mid degrees = %d down / %d up, want 6/2", len(c.Down(mid)), len(c.Up(mid)))
	}
	if got := len(c.Down(c.SwitchID(3, 0))); got != 4 {
		t.Errorf("root down-degree = %d, want 4", got)
	}
	// Routing machinery works on general shapes too.
	ud := routing.New(c)
	_ = ud.Routable()
}

func TestHashnetParams(t *testing.T) {
	p := NewHashnetParams(16, 3, 4, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Terminals() != 64 || p.MaxRadix() != 8 {
		t.Errorf("hashnet: T=%d radix=%d", p.Terminals(), p.MaxRadix())
	}
	c, err := GenerateGeneral(p, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	// Equal level sizes, degree 4 both ways in the middle.
	for lev := 1; lev <= 3; lev++ {
		if c.LevelSize(lev) != 16 {
			t.Errorf("level %d size = %d, want 16", lev, c.LevelSize(lev))
		}
	}
}

func TestRandomKaryTreeParams(t *testing.T) {
	// A random k-ary l-tree has k^{l-1} switches per level, k terminals
	// per leaf and up-degree k everywhere.
	p := NewHashnetParams(9, 3, 3, 3)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3-ary 3-tree: 9 switches/level, 27 terminals, like the k-ary l-tree.
	if p.Sizes[0] != 9 || p.Terminals() != 27 {
		t.Errorf("random 3-ary 3-tree: sizes=%v T=%d", p.Sizes, p.Terminals())
	}
	c, err := GenerateGeneral(p, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSwitches() != 27 {
		t.Errorf("switches = %d, want 27", c.NumSwitches())
	}
}

func TestPlanExpansion(t *testing.T) {
	steps, err := PlanExpansion(36, 3, 11664, 202572, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 5 {
		t.Fatalf("too few steps: %d", len(steps))
	}
	first, last := steps[0], steps[len(steps)-1]
	if first.Terminals < 11664 || first.Increment != 0 || first.RewiredLinks != 0 {
		t.Errorf("first step wrong: %+v", first)
	}
	// The schedule must reach the Theorem 4.2 threshold region (§5's 200K
	// maximum) and flag it.
	if !last.AtThreshold {
		t.Errorf("last step not at threshold: %+v", last)
	}
	if last.Terminals < 200000 {
		t.Errorf("schedule stops at %d terminals, want ≈202K", last.Terminals)
	}
	// Monotonicity and accounting.
	for i := 1; i < len(steps); i++ {
		s, prev := steps[i], steps[i-1]
		if s.Terminals <= prev.Terminals || s.CumRewired != prev.CumRewired+s.RewiredLinks {
			t.Errorf("step %d inconsistent: %+v after %+v", i, s, prev)
		}
		// Each increment rewires (l-1)·R = 72 links.
		incs := s.Increment - prev.Increment
		if s.RewiredLinks != 72*incs {
			t.Errorf("step %d rewired %d, want %d", i, s.RewiredLinks, 72*incs)
		}
	}
}

func TestPlanExpansionErrors(t *testing.T) {
	if _, err := PlanExpansion(36, 3, 11664, 100, 10); err == nil {
		t.Error("shrinking plan should fail")
	}
	if _, err := PlanExpansion(7, 3, 100, 200, 10); err == nil {
		t.Error("odd radix should fail")
	}
}

func TestExpandRoutable(t *testing.T) {
	r := rng.New(81)
	p := Params{Radix: 8, Levels: 3, Leaves: 16}
	c, _, _, err := GenerateRoutable(p, 20, r)
	if err != nil {
		t.Fatal(err)
	}
	out, ud, rewired, err := ExpandRoutable(c, 2, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ud.Routable() {
		t.Error("ExpandRoutable returned unroutable network")
	}
	if out.Terminals() != c.Terminals()+16 || rewired != 2*2*8 {
		t.Errorf("expansion accounting: T=%d rewired=%d", out.Terminals(), rewired)
	}
}
