package simnet

import (
	"reflect"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

func testConfig() Config {
	return Config{
		WarmupCycles:  500,
		MeasureCycles: 2000,
		Seed:          7,
	}
}

func buildCFT(t *testing.T, radix, levels int) (*topology.Clos, *routing.UpDown) {
	t.Helper()
	c, err := topology.NewCFT(radix, levels)
	if err != nil {
		t.Fatal(err)
	}
	return c, routing.New(c)
}

func buildRFC(t *testing.T, radix, levels, leaves int) (*topology.Clos, *routing.UpDown) {
	t.Helper()
	c, _, _, err := core.GenerateRoutable(core.Params{Radix: radix, Levels: levels, Leaves: leaves}, 20, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	return c, routing.New(c)
}

// checkConservation asserts the packet conservation invariant.
func checkConservation(t *testing.T, r Result) {
	t.Helper()
	if r.TotalGenerated != r.TotalDelivered+r.TotalDropped+r.InFlightAtEnd {
		t.Errorf("conservation violated: gen=%d del=%d drop=%d inflight=%d",
			r.TotalGenerated, r.TotalDelivered, r.TotalDropped, r.InFlightAtEnd)
	}
	if r.InSourceAtEnd > r.InFlightAtEnd {
		t.Errorf("source queue count %d exceeds in-flight %d", r.InSourceAtEnd, r.InFlightAtEnd)
	}
}

func TestZeroLoad(t *testing.T) {
	c, ud := buildCFT(t, 4, 2)
	s := New(c, ud, traffic.NewUniform(c.Terminals()), testConfig())
	r := s.Run(0)
	if r.TotalGenerated != 0 || r.AcceptedLoad != 0 {
		t.Errorf("zero load generated traffic: %+v", r)
	}
}

func TestLowLoadLatencyAndDelivery(t *testing.T) {
	c, ud := buildCFT(t, 8, 2)
	s := New(c, ud, traffic.NewUniform(c.Terminals()), testConfig())
	r := s.Run(0.05)
	checkConservation(t, r)
	if r.Delivered == 0 {
		t.Fatal("no packets delivered")
	}
	// Uncontended latency: ~1 cycle per hop on a <=2-turn path plus 16
	// cycles of serialization at ejection; queueing at 5% load is tiny.
	if r.AvgLatency < 16 || r.AvgLatency > 30 {
		t.Errorf("avg latency = %v cycles, want ~18-22", r.AvgLatency)
	}
	// At 5% offered the network accepts essentially everything.
	if r.AcceptedLoad < 0.045 || r.AcceptedLoad > 0.056 {
		t.Errorf("accepted = %v, want ≈0.05", r.AcceptedLoad)
	}
	if r.DroppedAtSource > r.Generated/100 {
		t.Errorf("unexpected source drops at low load: %d", r.DroppedAtSource)
	}
}

func TestCFTUniformHighLoad(t *testing.T) {
	// A CFT is rearrangeably non-blocking; under uniform traffic it should
	// sustain a large fraction of full load (HoL blocking costs some).
	c, ud := buildCFT(t, 8, 3)
	s := New(c, ud, traffic.NewUniform(c.Terminals()), testConfig())
	r := s.Run(1.0)
	checkConservation(t, r)
	if r.AcceptedLoad < 0.55 {
		t.Errorf("CFT uniform accepted = %v at load 1.0, want > 0.55", r.AcceptedLoad)
	}
}

func TestThroughputMonotoneInLoad(t *testing.T) {
	c, ud := buildCFT(t, 8, 2)
	var prev float64
	for _, load := range []float64{0.1, 0.3, 0.6} {
		s := New(c, ud, traffic.NewUniform(c.Terminals()), testConfig())
		r := s.Run(load)
		checkConservation(t, r)
		if r.AcceptedLoad < prev-0.03 {
			t.Errorf("accepted load dropped: %v after %v", r.AcceptedLoad, prev)
		}
		prev = r.AcceptedLoad
	}
}

func TestRFCSimulation(t *testing.T) {
	c, ud := buildRFC(t, 8, 3, 16)
	for _, pat := range []traffic.Pattern{
		traffic.NewUniform(c.Terminals()),
		traffic.NewPairing(c.Terminals(), rng.New(3)),
		traffic.NewFixedRandom(c.Terminals(), rng.New(4)),
	} {
		s := New(c, ud, pat, testConfig())
		r := s.Run(0.5)
		checkConservation(t, r)
		if r.Delivered == 0 {
			t.Errorf("%s: no packets delivered", pat.Name())
		}
		if r.UnroutableDrops != 0 {
			t.Errorf("%s: unroutable drops on a routable RFC", pat.Name())
		}
		if r.AcceptedLoad <= 0.1 {
			t.Errorf("%s: accepted = %v suspiciously low", pat.Name(), r.AcceptedLoad)
		}
	}
}

func TestDeterminism(t *testing.T) {
	c, ud := buildCFT(t, 4, 3)
	run := func() Result {
		return New(c, ud, traffic.NewUniform(c.Terminals()), testConfig()).Run(0.4)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed produced different results:\n%+v\n%+v", a, b)
	}
	cfg := testConfig()
	cfg.Seed = 8
	c2 := New(c, ud, traffic.NewUniform(c.Terminals()), cfg).Run(0.4)
	if reflect.DeepEqual(a, c2) {
		t.Error("different seeds produced identical results")
	}
}

// allToZero is a worst-case hot-spot pattern: every terminal sends to
// terminal 0.
type allToZero struct{}

func (allToZero) Name() string { return "all-to-zero" }
func (allToZero) Dest(src int, _ *rng.Rand) int {
	if src == 0 {
		return -1
	}
	return 0
}

func TestEjectionBottleneck(t *testing.T) {
	// With every terminal targeting terminal 0, aggregate delivery cannot
	// exceed one phit per cycle (one ejection port), i.e. accepted load
	// per terminal ≈ 1/T.
	c, ud := buildCFT(t, 4, 2)
	s := New(c, ud, allToZero{}, testConfig())
	r := s.Run(1.0)
	checkConservation(t, r)
	maxPerTerm := 1.0 / float64(c.Terminals())
	if r.AcceptedLoad > maxPerTerm*1.15 {
		t.Errorf("accepted %v exceeds ejection bound %v", r.AcceptedLoad, maxPerTerm)
	}
	if r.AcceptedLoad < maxPerTerm*0.7 {
		t.Errorf("accepted %v far below achievable hot-spot rate %v", r.AcceptedLoad, maxPerTerm)
	}
}

func TestFaultedNetworkStillConserves(t *testing.T) {
	c, ud := buildRFC(t, 8, 3, 16)
	// Remove 10% of links at random.
	r := rng.New(11)
	links := c.Links()
	r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	for _, l := range links[:len(links)/10] {
		c.RemoveLink(l.A, l.B)
	}
	ud.Rebuild()
	s := New(c, ud, traffic.NewUniform(c.Terminals()), testConfig())
	res := s.Run(0.6)
	checkConservation(t, res)
	if res.Delivered == 0 {
		t.Error("faulted but connected network delivered nothing")
	}
}

func TestIsolatedLeafCountsUnroutable(t *testing.T) {
	c, ud := buildCFT(t, 4, 2)
	leaf0 := c.SwitchID(1, 0)
	for _, up := range append([]int32(nil), c.Up(leaf0)...) {
		c.RemoveLink(leaf0, up)
	}
	ud.Rebuild()
	s := New(c, ud, traffic.NewUniform(c.Terminals()), testConfig())
	res := s.Run(0.5)
	checkConservation(t, res)
	if res.TotalUnroutable == 0 {
		t.Error("expected unroutable packets with an isolated leaf")
	}
	// Traffic between the other leaves still flows.
	if res.Delivered == 0 {
		t.Error("no delivery despite partial connectivity")
	}
}

func TestPairingFullThroughputOnCFT(t *testing.T) {
	// A CFT is rearrangeably non-blocking: a random pairing is a
	// permutation, which it should route at high rate.
	c, ud := buildCFT(t, 8, 2)
	s := New(c, ud, traffic.NewPairing(c.Terminals(), rng.New(5)), testConfig())
	r := s.Run(0.9)
	checkConservation(t, r)
	if r.AcceptedLoad < 0.6 {
		t.Errorf("pairing on CFT accepted %v at 0.9 offered, want > 0.6", r.AcceptedLoad)
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.WithDefaults()
	if cfg.VCs != 4 || cfg.BufferPackets != 4 || cfg.MeasureCycles != 10000 {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

func BenchmarkSimCycle11KScaled(b *testing.B) {
	// A scaled stand-in for the Figure 8 scenario: radix-8 3-level CFT.
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	cfg := testConfig()
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		New(c, ud, traffic.NewUniform(c.Terminals()), cfg).Run(0.6)
	}
}
