package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
)

func TestParamsValidate(t *testing.T) {
	good := Params{Radix: 8, Levels: 3, Leaves: 16}
	if err := good.Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
	bad := []Params{
		{Radix: 7, Levels: 3, Leaves: 16},  // odd radix
		{Radix: 2, Levels: 3, Leaves: 16},  // radix too small
		{Radix: 8, Levels: 1, Leaves: 16},  // too few levels
		{Radix: 8, Levels: 3, Leaves: 15},  // odd leaves
		{Radix: 16, Levels: 3, Leaves: 10}, // up-degree exceeds top level
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%v) should fail validation", i, p)
		}
	}
}

func TestParamsDerived(t *testing.T) {
	// §5 maximum-expansion example: R=36, l=3, N1=11254 gives 202,572
	// terminals, 28,135 switches and 405,144 wires.
	p := Params{Radix: 36, Levels: 3, Leaves: 11254}
	if got := p.Terminals(); got != 202572 {
		t.Errorf("terminals = %d, want 202572", got)
	}
	if got := p.Switches(); got != 28135 {
		t.Errorf("switches = %d, want 28135", got)
	}
	if got := p.Wires(); got != 405144 {
		t.Errorf("wires = %d, want 405144", got)
	}
	if got := p.Diameter(); got != 4 {
		t.Errorf("diameter = %d, want 4", got)
	}
	sizes := p.LevelSizes()
	if sizes[0] != 11254 || sizes[1] != 11254 || sizes[2] != 5627 {
		t.Errorf("level sizes = %v", sizes)
	}
	// §5 intermediate case: 2*2778*18 = 100,008 terminals, 13,890 switches,
	// 200,016 wires.
	p2 := Params{Radix: 36, Levels: 3, Leaves: 5556}
	if p2.Terminals() != 100008 || p2.Switches() != 13890 || p2.Wires() != 200016 {
		t.Errorf("100K case: T=%d switches=%d wires=%d", p2.Terminals(), p2.Switches(), p2.Wires())
	}
}

func TestParamsForTerminals(t *testing.T) {
	p := ParamsForTerminals(36, 3, 11664)
	if p.Terminals() < 11664 {
		t.Errorf("terminals %d below request", p.Terminals())
	}
	if p.Leaves%2 != 0 {
		t.Error("leaves not even")
	}
	// §5: an RFC with radix 20 and 1166 leaf routers carries 11,660
	// terminals, almost the 3-level CFT's 11,664.
	p20 := Params{Radix: 20, Levels: 3, Leaves: 1166}
	if p20.Terminals() != 11660 {
		t.Errorf("radix-20 RFC terminals = %d, want 11660", p20.Terminals())
	}
}

func TestMaxLeavesPaperExample(t *testing.T) {
	// §4.2: for diameter 4 (3 levels) and radix 36 the realizable limit is
	// slightly above N1 ≈ 11,254 (about 202,554 terminals).
	n1 := MaxLeaves(36, 3)
	if n1 < 11230 || n1 > 11280 {
		t.Errorf("MaxLeaves(36,3) = %d, want ≈11254", n1)
	}
	tt := MaxTerminals(36, 3)
	if tt < 202000 || tt > 203100 {
		t.Errorf("MaxTerminals(36,3) = %d, want ≈202554", tt)
	}
	// CFT of the same diameter connects only 11,664 — the RFC scales ~17x.
	if tt < 11664*15 {
		t.Error("RFC should scale far beyond the CFT at equal diameter")
	}
}

func TestRRNMaxSwitchesPaperExample(t *testing.T) {
	// §4.2: Δ=26, D=4 allows N = 22,773 switches (Δ^D ≈ 2N ln N).
	n := RRNMaxSwitches(26, 4)
	if n < 22600 || n > 22950 {
		t.Errorf("RRNMaxSwitches(26,4) = %d, want ≈22773", n)
	}
}

func TestThresholdMonotonic(t *testing.T) {
	prev := 0.0
	for _, n1 := range []int{100, 1000, 10000, 100000} {
		r := ThresholdRadix(n1, 3)
		if r <= prev {
			t.Errorf("threshold not increasing at N1=%d", n1)
		}
		prev = r
	}
	// More levels need smaller radix for the same N1.
	if ThresholdRadix(10000, 4) >= ThresholdRadix(10000, 3) {
		t.Error("threshold should decrease with level count")
	}
}

func TestSuccessProbability(t *testing.T) {
	if p := SuccessProbability(0); math.Abs(p-1/math.E) > 1e-12 {
		t.Errorf("P(x=0) = %v, want 1/e", p)
	}
	if p := SuccessProbability(10); p < 0.9999 {
		t.Errorf("P(x=10) = %v, want ≈1", p)
	}
	if p := SuccessProbability(-10); p > 1e-9 {
		t.Errorf("P(x=-10) = %v, want ≈0", p)
	}
}

func TestNormalizedBisectionPaperNumbers(t *testing.T) {
	// §4.2 quotes, for R=36: RRN 0.88, 2-level RFC 0.80, 3-level RFC 0.86.
	if got := NormalizedBisectionRFC(1000, 36, 2); math.Abs(got-0.80) > 0.01 {
		t.Errorf("2-level RFC normalized bisection = %v, want ≈0.80", got)
	}
	if got := NormalizedBisectionRFC(1000, 36, 3); math.Abs(got-0.86) > 0.01 {
		t.Errorf("3-level RFC normalized bisection = %v, want ≈0.86", got)
	}
	// The RRN bound is normalised by the terminals in one half, N/2 · t.
	if got := BisectionLowerBoundRRN(1000, 26) / (1000 / 2 * 10); math.Abs(got-0.88) > 0.01 {
		t.Errorf("RRN normalized bisection = %v, want ≈0.88", got)
	}
}

func TestGenerateStructure(t *testing.T) {
	r := rng.New(71)
	p := Params{Radix: 8, Levels: 3, Leaves: 16}
	c, err := Generate(p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
	if c.Terminals() != p.Terminals() || c.NumSwitches() != p.Switches() || c.Wires() != p.Wires() {
		t.Errorf("built network disagrees with params: T=%d sw=%d w=%d", c.Terminals(), c.NumSwitches(), c.Wires())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := Params{Radix: 8, Levels: 3, Leaves: 16}
	c1, err1 := Generate(p, rng.New(5))
	c2, err2 := Generate(p, rng.New(5))
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	l1, l2 := c1.Links(), c2.Links()
	if len(l1) != len(l2) {
		t.Fatal("link counts differ")
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("link %d differs", i)
		}
	}
}

func TestGenerateProperty(t *testing.T) {
	f := func(seed uint64, rRaw, nRaw uint8) bool {
		radix := (int(rRaw%6) + 2) * 2 // 4..14 even
		n1 := (int(nRaw%20) + radix) * 2
		p := Params{Radix: radix, Levels: 3, Leaves: n1}
		if p.Validate() != nil {
			return true // skip infeasible combos
		}
		c, err := Generate(p, rng.New(seed))
		if err != nil {
			return false
		}
		return c.ValidateRadixRegular() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGenerateRoutableAboveThreshold(t *testing.T) {
	// R=8, l=3, N1=16: threshold radix is 2(16 ln 16)^(1/4) ≈ 5.2, so
	// radix 8 sits far above it and routability should be near-certain.
	r := rng.New(72)
	p := Params{Radix: 8, Levels: 3, Leaves: 16}
	c, ud, attempts, err := GenerateRoutable(p, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	if !ud.Routable() {
		t.Error("returned network not routable")
	}
	if attempts > 3 {
		t.Errorf("needed %d attempts far above threshold", attempts)
	}
	if c.Terminals() != 64 {
		t.Errorf("terminals = %d", c.Terminals())
	}
}

// TestGenerateRoutableReplaysGenerate checks that GenerateRoutable is
// Generate followed by routing.New, attempt for attempt: replaying the
// attempts on an equal-seed stream finds the same unroutable attempts, then
// the same topology and routing state. Seed 12 takes six attempts.
func TestGenerateRoutableReplaysGenerate(t *testing.T) {
	p := Params{Radix: 8, Leaves: 64, Levels: 3}
	c, ud, attempts, err := GenerateRoutable(p, 20, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if attempts < 2 {
		t.Fatalf("seed 12 took %d attempt(s), want several", attempts)
	}
	r := rng.New(12)
	for a := 1; a <= attempts; a++ {
		want, err := Generate(p, r)
		if err != nil {
			t.Fatal(err)
		}
		wantUD := routing.New(want)
		if a < attempts {
			if wantUD.Routable() {
				t.Fatalf("replayed attempt %d is routable, but GenerateRoutable took %d", a, attempts)
			}
			continue
		}
		if !slices.Equal(c.Links(), want.Links()) {
			t.Fatal("returned topology differs from the replayed last attempt")
		}
		if !ud.Routable() {
			t.Fatal("GenerateRoutable returned an unroutable router")
		}
		if got, want := ud.CoverBytes(), wantUD.CoverBytes(); got != want {
			t.Fatalf("CoverBytes: got %d, replay %d", got, want)
		}
		if got, want := ud.CoverRepr(), wantUD.CoverRepr(); got != want {
			t.Fatalf("CoverRepr: got %q, replay %q", got, want)
		}
	}
}

func TestGenerateRoutableBelowThreshold(t *testing.T) {
	// R=4 on 200 leaves with 2 levels: threshold radix ≈ 2*sqrt(200 ln
	// 200) ≈ 65, so radix 4 virtually never yields common ancestors.
	r := rng.New(73)
	p := Params{Radix: 4, Levels: 2, Leaves: 200}
	if _, _, _, err := GenerateRoutable(p, 3, r); err == nil {
		t.Error("expected failure far below threshold")
	}
}

func TestTheorem42MonteCarlo(t *testing.T) {
	// Empirical check of the sharp threshold on a 2-level RFC with N1=200
	// leaves (N2=100 roots): well below threshold routability is rare,
	// well above it is near-certain, and at the threshold it is
	// intermediate — the e^{-e^{-x}} shape.
	r := rng.New(74)
	const trials = 120
	probe := func(radix int) float64 {
		p := Params{Radix: radix, Levels: 2, Leaves: 200}
		prob, err := estimateUpDownProbability(p, trials, r)
		if err != nil {
			t.Fatal(err)
		}
		return prob
	}
	// The exact finite-size prediction follows the theorem's own Poisson
	// argument with the hypergeometric disjointness probability instead of
	// its asymptotic simplification: λ = C(N1,2) ∏_{i<Δ} (N2−Δ−i)/(N2−i),
	// P(routable) = e^{−λ}. (The asymptotic e^{−e^{−x}} form needs Δ/N_l
	// to be small and is tested separately via its shape.)
	exact := func(radix int) float64 {
		const n1, n2 = 200, 100
		delta := radix / 2
		logP := 0.0
		for i := 0; i < delta; i++ {
			logP += math.Log(float64(n2-delta-i)) - math.Log(float64(n2-i))
		}
		lambda := float64(n1) * float64(n1-1) / 2 * math.Exp(logP)
		return math.Exp(-lambda)
	}
	below := probe(44) // exact prediction ≈ 0
	near := probe(54)  // exact prediction ≈ 0.5
	above := probe(76) // exact prediction ≈ 1
	if below > 0.15 {
		t.Errorf("below threshold: empirical %v, want ≈0 (exact %v)", below, exact(44))
	}
	if above < 0.85 {
		t.Errorf("above threshold: empirical %v, want ≈1 (exact %v)", above, exact(76))
	}
	if math.Abs(near-exact(54)) > 0.2 {
		t.Errorf("near threshold: empirical %v vs exact prediction %v", near, exact(54))
	}
	if !(below <= near && near <= above) {
		t.Errorf("probability not monotone: %v %v %v", below, near, above)
	}
}

func TestExpand(t *testing.T) {
	r := rng.New(75)
	p := Params{Radix: 8, Levels: 3, Leaves: 16}
	c, _, _, err := GenerateRoutable(p, 10, r)
	if err != nil {
		t.Fatal(err)
	}
	out, rewired, err := Expand(c, 3, r)
	if err != nil {
		t.Fatal(err)
	}
	// 3 increments: +2 switches at levels 1,2 and +1 at the top each.
	if out.LevelSize(1) != 22 || out.LevelSize(2) != 22 || out.LevelSize(3) != 11 {
		t.Errorf("expanded sizes: %d/%d/%d", out.LevelSize(1), out.LevelSize(2), out.LevelSize(3))
	}
	// Each increment adds R = 8 terminals.
	if out.Terminals() != c.Terminals()+3*8 {
		t.Errorf("terminals = %d, want %d", out.Terminals(), c.Terminals()+3*8)
	}
	// Each increment rewires (l−1)·R = 16 links.
	if rewired != 3*16 {
		t.Errorf("rewired = %d, want 48", rewired)
	}
	// Expansion must not mutate the input.
	if c.LevelSize(1) != 16 {
		t.Error("input network was mutated")
	}
	if !out.SwitchGraph().IsConnected() {
		t.Error("expanded network disconnected")
	}
	// The expanded network usually stays routable this far above
	// threshold; verify the bitsets at least see every new leaf.
	ud := routing.New(out)
	if got := ud.Cover(0, out.SwitchID(1, 21)).Count(); got != 1 {
		t.Errorf("new leaf descendant count = %d", got)
	}
}

func TestExpandZero(t *testing.T) {
	r := rng.New(76)
	c, err := Generate(Params{Radix: 8, Levels: 2, Leaves: 16}, r)
	if err != nil {
		t.Fatal(err)
	}
	out, rewired, err := Expand(c, 0, r)
	if err != nil || rewired != 0 {
		t.Fatalf("zero expansion: %v, rewired %d", err, rewired)
	}
	if out.Terminals() != c.Terminals() {
		t.Error("zero expansion changed terminals")
	}
	if _, _, err := Expand(c, -1, r); err == nil {
		t.Error("negative increments should fail")
	}
}

func TestExpandPreservesExistingDegrees(t *testing.T) {
	r := rng.New(77)
	c, err := Generate(Params{Radix: 12, Levels: 3, Leaves: 24}, r)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := Expand(c, 5, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := out.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
}

func TestFigure4RFC(t *testing.T) {
	// Figure 4 of the paper: an RFC of radix 4 with N1 = 16 and 4 levels.
	p := Params{Radix: 4, Levels: 4, Leaves: 16}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	c, err := Generate(p, rng.New(44))
	if err != nil {
		t.Fatal(err)
	}
	if c.LevelSize(1) != 16 || c.LevelSize(2) != 16 || c.LevelSize(3) != 16 || c.LevelSize(4) != 8 {
		t.Errorf("level sizes %d/%d/%d/%d, want 16/16/16/8",
			c.LevelSize(1), c.LevelSize(2), c.LevelSize(3), c.LevelSize(4))
	}
	if err := c.ValidateRadixRegular(); err != nil {
		t.Error(err)
	}
	// Same switch counts and wires as the CFT of Figure 1 (the RFC keeps
	// the CFT's structure, only the wiring pattern is random).
	if c.NumSwitches() != 56 || c.Wires() != 96 || c.Terminals() != 32 {
		t.Errorf("switches=%d wires=%d T=%d, want 56/96/32", c.NumSwitches(), c.Wires(), c.Terminals())
	}
}

// estimateUpDownProbability measures, by Monte Carlo over trials
// independently generated RFCs, the empirical probability that every leaf
// pair has a common ancestor: the probe of Theorem 4.2.
func estimateUpDownProbability(p Params, trials int, r *rng.Rand) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	ok := 0
	for i := 0; i < trials; i++ {
		c, err := Generate(p, r)
		if err != nil {
			return 0, err
		}
		if routing.New(c).Routable() {
			ok++
		}
	}
	return float64(ok) / float64(trials), nil
}
