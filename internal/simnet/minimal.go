package simnet

import (
	"fmt"

	"rfclos/internal/simcore"
	"rfclos/internal/topology"
)

// minimalRouter is the simcore.Router of direct networks: random minimal
// (shortest-path ECMP) port selection with hop-indexed VCs. Packet state is
// the hop count, doubling as the VC index.
type minimalRouter struct {
	g    *topology.RRN
	dist [][]uint8 // all-pairs hop distances (graph.HopTable)
	tps  int32
}

// newMinimalRouter builds the shortest-path ECMP policy for the unified
// engine, computing the all-pairs hop table on one goroutine (callers
// already run one simulation per engine job). It returns the network
// diameter so callers can size the VC count; it fails when the graph is
// disconnected or a distance exceeds graph.MaxHops.
func newMinimalRouter(rrn *topology.RRN) (*minimalRouter, int, error) {
	dist, diameter, err := rrn.G.HopTable(1)
	if err != nil {
		return nil, 0, fmt.Errorf("simnet: %w", err)
	}
	return &minimalRouter{g: rrn, dist: dist, tps: int32(rrn.TermsPerSwitch)}, diameter, nil
}

// NewPacket starts every packet at hop 0; a connected network (checked at
// construction) routes every pair.
func (r *minimalRouter) NewPacket(_, _ int32) (int8, bool) { return 0, true }

// Route requests ejection at the destination switch, else a uniformly
// random neighbour one hop closer to it.
func (r *minimalRouter) Route(e *simcore.Engine, sw int32, p *simcore.Packet) int16 {
	dstSwitch := p.Dst / r.tps
	if dstSwitch == sw {
		return simcore.Eject
	}
	dd := r.dist[dstSwitch]
	want := dd[sw] - 1
	chosen, count := -1, 0
	for i, v := range r.g.G.Neighbors(int(sw)) {
		if dd[v] == want {
			count++
			if count == 1 || e.Rand().Intn(count) == 0 {
				chosen = i
			}
		}
	}
	if chosen < 0 {
		return simcore.NoRoute
	}
	return int16(chosen)
}

// HasCredit checks the packet's single eligible VC: hop-indexed deadlock
// avoidance admits exactly VC State on every channel.
func (r *minimalRouter) HasCredit(e *simcore.Engine, ch int32, p *simcore.Packet) bool {
	return e.VCFree(ch, int32(p.State))
}

// SelectVC returns the hop-indexed VC; no randomness.
func (r *minimalRouter) SelectVC(e *simcore.Engine, ch int32, p *simcore.Packet) int32 {
	return ch*int32(e.Config().VCs) + int32(p.State)
}

// Forwarded advances the hop count, moving the packet to the next VC layer.
func (r *minimalRouter) Forwarded(_ *simcore.Engine, _, _ int32, p *simcore.Packet) {
	p.State++
}
