package simdirect

import (
	"testing"
	"testing/quick"

	"rfclos/internal/rng"
	"rfclos/internal/simcore"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

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
	router, diameter, err := MinimalRouter(rrn)
	if err != nil {
		t.Fatal(err)
	}
	if want := rrn.G.Diameter(); diameter != want {
		t.Fatalf("MinimalRouter diameter %d, want %d", diameter, want)
	}
	cfg := simnet.Config{VCs: 16, WarmupCycles: 10, MeasureCycles: 10}
	sim, err := New(rrn, traffic.NewUniform(rrn.Terminals()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.eng
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
