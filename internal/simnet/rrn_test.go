package simnet

import (
	"errors"
	"testing"

	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

func buildRRN(t *testing.T, n, d, tps int) *topology.RRN {
	t.Helper()
	rrn, err := topology.NewRRN(n, d, tps, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	return rrn
}

// rrnTestConfig covers the diameter of every test RRN with hop-indexed VCs.
func rrnTestConfig() Config {
	return Config{WarmupCycles: 500, MeasureCycles: 2000, Seed: 5, VCs: 8}
}

func TestDirectBasicDelivery(t *testing.T) {
	rrn := buildRRN(t, 64, 6, 3)
	s, err := NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), rrnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run(0.3)
	checkConservation(t, r)
	if r.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if r.Stalled {
		t.Fatal("stalled — hop-indexed VC deadlock avoidance failed")
	}
	if r.AcceptedLoad < 0.27 || r.AcceptedLoad > 0.33 {
		t.Errorf("accepted %v at 0.3 offered", r.AcceptedLoad)
	}
	// Low-load latency: ~2.5 mean hops + 16-cycle serialization.
	if r.AvgLatency < 16 || r.AvgLatency > 60 {
		t.Errorf("latency %v implausible", r.AvgLatency)
	}
}

func TestDirectSaturation(t *testing.T) {
	rrn := buildRRN(t, 64, 6, 3)
	s, err := NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), rrnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run(1.0)
	checkConservation(t, r)
	if r.Stalled {
		t.Fatal("saturation stalled the network (deadlock?)")
	}
	// A well-provisioned RRN (6 network ports per 3 terminals) should
	// sustain a solid fraction of full load under uniform traffic.
	if r.AcceptedLoad < 0.4 {
		t.Errorf("accepted %v at saturation, suspiciously low", r.AcceptedLoad)
	}
}

func TestMinimalRouterRejectsDisconnected(t *testing.T) {
	rrn := buildRRN(t, 64, 4, 2)
	for _, u := range append([]int32(nil), rrn.G.Neighbors(3)...) {
		rrn.G.RemoveEdge(3, int(u))
	}
	_, _, err := newMinimalRouter(rrn)
	var he *graph.HopError
	if !errors.As(err, &he) || he.To != 3 || he.Dist != -1 {
		t.Fatalf("newMinimalRouter on a network with switch 3 cut off: error %v", err)
	}
}

func TestDirectVCRequirement(t *testing.T) {
	rrn := buildRRN(t, 64, 4, 2)
	cfg := rrnTestConfig()
	cfg.VCs = 1 // diameter of a 64-switch degree-4 RRN is > 1
	if _, err := NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), cfg); err == nil {
		t.Fatal("expected VC-count rejection for deadlock avoidance")
	}
}

func TestDirectDeterminism(t *testing.T) {
	rrn := buildRRN(t, 32, 4, 2)
	run := func() Result {
		s, err := NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), rrnTestConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s.Run(0.5)
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.AvgLatency != b.AvgLatency {
		t.Errorf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestDirectPairing(t *testing.T) {
	rrn := buildRRN(t, 64, 6, 3)
	pat := traffic.NewPairing(rrn.Terminals(), rng.New(3))
	s, err := NewRRN(rrn, pat, rrnTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := s.Run(0.8)
	checkConservation(t, r)
	if r.Delivered == 0 || r.Stalled {
		t.Errorf("pairing failed: %+v", r)
	}
}

// TestDefaultsAgreeAcrossFrontEnds pins both front ends to the one simcore
// defaulting path: a zero config gives NewRRN exactly the Table 2
// parameters New gets, except RequestRefresh, which NewRRN pins to 1 (its
// random hop choice must be re-drawn every cycle).
func TestDefaultsAgreeAcrossFrontEnds(t *testing.T) {
	rrn := buildRRN(t, 32, 4, 2)
	s, err := NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := Config{}.WithDefaults()
	want.RequestRefresh = 1
	if got := s.Config(); got != want {
		t.Errorf("NewRRN defaults diverged from New's:\n got %+v\nwant %+v", got, want)
	}
}
