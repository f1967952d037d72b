package simnet

import (
	"testing"
	"testing/quick"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simcore"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// contractEngine builds an idle engine over c with the given VC count, for
// driving Router hooks directly (nothing has been injected, so every VC is
// free).
func contractEngine(t *testing.T, c *topology.Clos, ud *routing.UpDown, vcs int) *simcore.Engine {
	t.Helper()
	cfg := Config{VCs: vcs, WarmupCycles: 10, MeasureCycles: 10}
	return New(c, ud, traffic.NewUniform(c.Terminals()), cfg)
}

// TestUpDownRouterContract property-checks the up/down Router against the
// simcore contract: for random terminal pairs, following the router's port
// choices walks a valid up/down path — up moves happen only while the up
// budget lasts, every hop stays on the fabric, and the walk ejects at the
// destination leaf in exactly 2×MinTurn hops (the shortest up/down route).
func TestUpDownRouterContract(t *testing.T) {
	for _, build := range []struct {
		name string
		c    *topology.Clos
	}{
		{"cft8x3", mustCFT(t, 8, 3)},
		{"rfc", buildContractRFC(t)},
	} {
		c, ud := build.c, routing.New(build.c)
		eng := contractEngine(t, c, ud, 4)
		router := newUpDownRouter(c, ud, false)
		terms := c.Terminals()
		walk := func(a, b uint16) bool {
			src := int32(int(a) % terms)
			dst := int32(int(b) % terms)
			state, ok := router.NewPacket(src, dst)
			if !ok {
				return false // fault-free fabric: every pair routes
			}
			p := &simcore.Packet{Src: src, Dst: dst, State: state}
			sw := c.LeafOfTerminal(int(src))
			dstLeaf := c.LeafOfTerminal(int(dst))
			for hop := 0; hop <= 2*int(state); hop++ {
				port := router.Route(eng, sw, p)
				if port == simcore.Eject {
					return sw == dstLeaf && hop == 2*int(state)
				}
				if port < 0 {
					return false
				}
				ups := c.Up(sw)
				var next int32
				if int(port) < len(ups) {
					if p.State <= 0 {
						return false // up move without remaining budget
					}
					next = ups[port]
				} else {
					downs := c.Down(sw)
					di := int(port) - len(ups)
					if di >= len(downs) {
						return false
					}
					next = downs[di]
				}
				router.Forwarded(eng, sw, int32(port), p)
				sw = next
			}
			return false // never ejected within the shortest-route bound
		}
		if err := quick.Check(walk, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: %v", build.name, err)
		}
	}
}

// TestUpDownRouterVCBaseline checks the "no VCs needed" half of the VC
// discipline: on a 1-VC engine — the zero-budget baseline, since up/down
// routing is deadlock-free without any VC escalation — the router accepts
// every idle channel and never selects a VC outside the channel's [0, VCs)
// range.
func TestUpDownRouterVCBaseline(t *testing.T) {
	c := mustCFT(t, 8, 3)
	ud := routing.New(c)
	eng := contractEngine(t, c, ud, 1)
	router := newUpDownRouter(c, ud, false)
	channels := int32(0)
	for sw := int32(0); sw < int32(c.NumSwitches()); sw++ {
		channels += int32(len(c.Up(sw)) + len(c.Down(sw)))
	}
	p := &simcore.Packet{}
	pick := func(raw uint32) bool {
		ch := int32(raw) % channels
		if ch < 0 {
			ch = -ch
		}
		if !router.HasCredit(eng, ch, p) {
			return false // idle engine: every channel has space
		}
		q := router.SelectVC(eng, ch, p)
		vcs := int32(eng.Config().VCs)
		return q >= ch*vcs && q < (ch+1)*vcs
	}
	if err := quick.Check(pick, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMinimalRouterContract property-checks the minimal Router against the
// simcore contract: for random terminal pairs, every port the router picks
// is a valid shortest next hop (one hop closer to the destination switch),
// the hop-indexed VC code strictly increases along the route, and the walk
// ejects at the destination switch after exactly its BFS distance in hops.
func TestMinimalRouterContract(t *testing.T) {
	rrn, err := topology.NewRRN(32, 4, 2, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	router, diameter, err := newMinimalRouter(rrn)
	if err != nil {
		t.Fatal(err)
	}
	if want := rrn.G.Diameter(); diameter != want {
		t.Fatalf("newMinimalRouter diameter %d, want %d", diameter, want)
	}
	cfg := Config{VCs: 16, WarmupCycles: 10, MeasureCycles: 10}
	eng, err := NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	vcs := int32(eng.Config().VCs)
	// Independent distance tables for validation.
	dist := make([][]int32, rrn.N())
	for v := 0; v < rrn.N(); v++ {
		dist[v] = rrn.G.BFS(v, nil)
	}
	terms := int32(rrn.Terminals())
	tps := int32(rrn.TermsPerSwitch)
	walk := func(a, b uint16) bool {
		src := int32(a) % terms
		dst := int32(b) % terms
		state, ok := router.NewPacket(src, dst)
		if !ok || state != 0 {
			return false // connected network: every pair routes, from hop 0
		}
		p := &simcore.Packet{Src: src, Dst: dst, State: state}
		sw := src / tps
		dstSw := dst / tps
		d0 := dist[dstSw][sw]
		prevVC := int32(-1)
		for hop := int32(0); hop < d0; hop++ {
			port := router.Route(eng, sw, p)
			if port < 0 {
				return false // mid-route: a minimal hop must exist
			}
			next := rrn.G.Neighbors(int(sw))[port]
			if dist[dstSw][next] != dist[dstSw][sw]-1 {
				return false // not a shortest next hop
			}
			// The single eligible VC is the hop index, on every channel.
			q := router.SelectVC(eng, 0, p)
			if q != int32(p.State) || q >= vcs || q <= prevVC {
				return false // hop-indexed VC must strictly increase
			}
			prevVC = q
			router.Forwarded(eng, sw, int32(port), p)
			sw = next
		}
		return sw == dstSw && router.Route(eng, sw, p) == simcore.Eject &&
			int(p.State) <= diameter
	}
	if err := quick.Check(walk, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func mustCFT(t *testing.T, radix, levels int) *topology.Clos {
	t.Helper()
	c, err := topology.NewCFT(radix, levels)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func buildContractRFC(t *testing.T) *topology.Clos {
	t.Helper()
	c, _, _, err := core.GenerateRoutable(core.Params{Radix: 8, Levels: 3, Leaves: 16}, 20, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	return c
}
