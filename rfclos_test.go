package rfclos

import (
	"strings"
	"testing"
)

// These are end-to-end integration tests of the public facade: build →
// route → expand → simulate, the full life of an RFC deployment.

func TestPublicAPIEndToEnd(t *testing.T) {
	p := ParamsForTerminals(8, 3, 60)
	if p.Terminals() < 60 {
		t.Fatalf("sizing failed: %v", p)
	}
	c, router, err := NewRFC(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !router.Routable() {
		t.Fatal("NewRFC returned unroutable network")
	}

	// Expand by two increments and re-route.
	bigger, rewired, err := Expand(c, 2, 43)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Terminals() != c.Terminals()+2*p.Radix {
		t.Errorf("expansion terminals: %d -> %d", c.Terminals(), bigger.Terminals())
	}
	if rewired != 2*(p.Levels-1)*p.Radix {
		t.Errorf("rewired = %d", rewired)
	}
	router2 := NewRouter(bigger)
	_ = router2.Routable() // probabilistic; just exercise it

	// Simulate all three traffic patterns briefly.
	cfg := DefaultSimConfig()
	cfg.WarmupCycles = 200
	cfg.MeasureCycles = 800
	for _, name := range TrafficNames() {
		pat, err := NewTraffic(name, c.Terminals(), 7)
		if err != nil {
			t.Fatal(err)
		}
		res := Simulate(c, router, pat, 0.4, cfg)
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
		if res.TotalGenerated != res.TotalDelivered+res.TotalDropped+res.InFlightAtEnd {
			t.Errorf("%s: conservation violated", name)
		}
	}
}

func TestPublicBaselines(t *testing.T) {
	cft, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cft.Terminals() != 128 {
		t.Errorf("CFT terminals = %d, want 128", cft.Terminals())
	}
	oft, err := NewOFT(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if oft.Terminals() != 104 {
		t.Errorf("OFT terminals = %d, want 2(q+1)(q²+q+1) = 104", oft.Terminals())
	}
	kary, err := NewKaryTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if kary.Terminals() != 16 {
		t.Errorf("k-ary tree terminals = %d, want 16", kary.Terminals())
	}
	rrn, err := NewRRN(32, 4, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if rrn.Terminals() != 64 {
		t.Errorf("RRN terminals = %d, want 64", rrn.Terminals())
	}
	partial, err := NewCFTWithTerminals(8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Terminals() != 64 {
		t.Errorf("partial CFT terminals = %d, want 64", partial.Terminals())
	}
}

func TestPublicThresholds(t *testing.T) {
	if MaxTerminals(36, 3) < 200000 {
		t.Error("MaxTerminals(36,3) should be ≈202K")
	}
	if ThresholdRadix(648, 3) >= 36 {
		t.Error("radix 36 should be above threshold for 648 leaves")
	}
	x := XParam(36, 648, 3)
	if SuccessProbability(x) < 0.99 {
		t.Error("11K scenario should be far above threshold")
	}
}

func TestPublicReports(t *testing.T) {
	for _, id := range []string{"fig5", "fig6", "fig7"} {
		if rep, err := RunExhibit(id, ExhibitParams{}); err != nil || len(rep.Rows) == 0 {
			t.Errorf("%s: %v, empty report", id, err)
		}
	}
	rep, err := RunExhibit("costs", ExhibitParams{})
	if err != nil || !strings.Contains(rep.Format(), "RFC") {
		t.Errorf("costs missing RFC rows (%v)", err)
	}
}
