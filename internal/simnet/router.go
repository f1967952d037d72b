package simnet

import (
	"rfclos/internal/routing"
	"rfclos/internal/simcore"
	"rfclos/internal/topology"
)

// upDownRouter is the simcore.Router of indirect networks: the paper's
// "shortest injection, up/down random request" scheme. Packet state is the
// remaining up-hop budget (from routing.UpDown.MinTurn); any free VC may be
// used, since up/down routes make the channel dependency graph acyclic
// without VC ordering (§4.1).
type upDownRouter struct {
	c     *topology.Clos
	ud    *routing.UpDown
	upLen []int16 // up-port count per switch (down ports follow the ups)
	n1    int32   // leaf switch count; leaves are switches [0, n1)
	hash  bool
}

// newUpDownRouter builds the up/down routing policy for the unified engine;
// hash selects the deterministic D-mod-K flow-hash variant instead of
// per-request randomisation.
func newUpDownRouter(c *topology.Clos, ud *routing.UpDown, hash bool) *upDownRouter {
	r := &upDownRouter{c: c, ud: ud, n1: int32(c.LevelSize(1)), hash: hash}
	r.upLen = make([]int16, c.NumSwitches())
	for sw := int32(0); sw < int32(c.NumSwitches()); sw++ {
		r.upLen[sw] = int16(len(c.Up(sw)))
	}
	return r
}

// NewPacket computes the minimal up-hop budget, or ok=false when the pair
// has no surviving up/down path (faulty network).
func (r *upDownRouter) NewPacket(src, dst int32) (int8, bool) {
	srcLeaf := int(r.c.LeafOfTerminal(int(src)))
	dstLeaf := int(r.c.LeafOfTerminal(int(dst)))
	turn := r.ud.MinTurn(srcLeaf, dstLeaf)
	if turn < 0 {
		return 0, false
	}
	return int8(turn), true
}

// Route picks the packet's output request at switch sw: ejection at the
// destination leaf, then a qualifying up port during the ascent or down
// port during the descent — chosen uniformly at random per request (Table
// 2's "up/down random") or by deterministic flow hash (Config.HashRouting).
func (r *upDownRouter) Route(e *simcore.Engine, sw int32, p *simcore.Packet) int16 {
	dstLeaf := int(r.c.LeafOfTerminal(int(p.Dst)))
	if int(sw) == dstLeaf && sw < r.n1 {
		return simcore.Eject
	}
	if r.hash {
		key := flowHash(p.Src, p.Dst, sw)
		if p.State > 0 {
			if port := r.ud.NextUpPortHash(sw, int(p.State), dstLeaf, key); port >= 0 {
				return int16(port)
			}
			return simcore.NoRoute
		}
		if port := r.ud.NextDownPortHash(sw, dstLeaf, key); port >= 0 {
			return int16(int(r.upLen[sw]) + port)
		}
		return simcore.NoRoute
	}
	if p.State > 0 {
		if port := r.ud.NextUpPort(sw, int(p.State), dstLeaf, e.Rand()); port >= 0 {
			return int16(port)
		}
		return simcore.NoRoute
	}
	if port := r.ud.NextDownPort(sw, dstLeaf, e.Rand()); port >= 0 {
		return int16(int(r.upLen[sw]) + port)
	}
	return simcore.NoRoute
}

// HasCredit accepts any VC with buffer space: up/down needs no VC ordering.
func (r *upDownRouter) HasCredit(e *simcore.Engine, ch int32, _ *simcore.Packet) bool {
	return e.AnyVCFree(ch)
}

// SelectVC picks uniformly among the VCs with space (Table 2's random VC
// assignment).
func (r *upDownRouter) SelectVC(e *simcore.Engine, ch int32, _ *simcore.Packet) int32 {
	return e.RandomFreeVC(ch)
}

// Forwarded burns one up hop when the packet left on an up port.
func (r *upDownRouter) Forwarded(_ *simcore.Engine, sw, port int32, p *simcore.Packet) {
	if port < int32(r.upLen[sw]) {
		p.State--
	}
}

// flowHash mixes the flow identifier and the current switch into a D-mod-K
// selection key (fmix-style avalanche).
func flowHash(src, dst, sw int32) uint32 {
	x := uint64(uint32(src))<<40 ^ uint64(uint32(dst))<<16 ^ uint64(uint32(sw))
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return uint32(x)
}
