package simcore

import "rfclos/internal/rng"

// Route sentinels returned by Router.Route and stored in a packet's cached
// request.
const (
	// Eject requests delivery at the current switch (the packet is at its
	// destination).
	Eject = -1
	// NoRoute reports that no viable next hop exists this cycle (possible
	// mid-flight on a faulted network); the packet waits and the request
	// is recomputed on the next consideration.
	NoRoute = -2
)

// Packet is one in-flight packet. Packets live in a pooled slice inside the
// Engine and are referenced by index; routers see them only through the
// Router hooks.
type Packet struct {
	// Src and Dst are terminal ids.
	Src, Dst int32
	// State is the router-owned per-packet routing state: the remaining
	// up-hop budget for up/down routing, the hop index for hop-indexed
	// VC deadlock avoidance. The engine initialises it from
	// Router.NewPacket and otherwise never touches it.
	State int8

	genAt   int32
	readyAt int32 // cycle at which the header is routable at its current switch
	reqPort int16 // cached output-port request at the current switch
	reqAt   int32 // cycle the request was computed
}

// Router is the pluggable routing policy of the unified cycle engine: it
// owns hop selection, per-packet routing state and the virtual-channel
// discipline, while the Engine owns every topology-agnostic mechanism (VC
// ring buffers, credits, arbitration, events, terminals, statistics).
//
// Two disciplines ship with the repository: the folded-Clos up/down router
// (simnet.New), deadlock-free with no VC constraint, and the direct-network
// minimal router (simnet.NewRRN), which needs the hop-indexed VC scheme —
// SelectVC returns VC State, which strictly increases along a route, making
// the channel dependency graph acyclic.
//
// Determinism contract: all randomness must come from e.Rand(), and hooks
// must draw from it only as documented (Route and SelectVC may draw;
// NewPacket, HasCredit and Forwarded must not), so a simulation stays a
// pure function of (topology, pattern, Config.Seed).
type Router interface {
	// NewPacket returns the initial routing state for a packet from
	// terminal src to terminal dst, or ok=false when the pair has no route
	// (the engine counts it as unroutable and never injects it).
	NewPacket(src, dst int32) (state int8, ok bool)
	// Route picks the output request for the head packet p at switch sw:
	// an output-port index into the switch's port list, Eject, or NoRoute.
	// The engine caches the request for Config.RequestRefresh cycles.
	Route(e *Engine, sw int32, p *Packet) int16
	// HasCredit reports whether channel ch can accept p on some VC this
	// cycle; it gates arbitration candidacy and must not consume
	// randomness.
	HasCredit(e *Engine, ch int32, p *Packet) bool
	// SelectVC returns the VC queue code (ch*VCs + vc) p is dispatched
	// into, or -1 when none is free — which the engine treats as an
	// arbitration bug, since HasCredit held earlier in the same cycle.
	SelectVC(e *Engine, ch int32, p *Packet) int32
	// Forwarded updates p's routing state after it was dispatched on
	// output port at switch sw.
	Forwarded(e *Engine, sw int32, port int32, p *Packet)
}

// Rand returns the engine's RNG stream. Router hooks must use it for every
// random choice.
func (e *Engine) Rand() *rng.Rand { return e.rnd }

// Config returns the engine's (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// VCFree reports whether VC vc of channel ch has buffer space.
func (e *Engine) VCFree(ch, vc int32) bool {
	return int(e.vcOccupied[ch*int32(e.cfg.VCs)+vc]) < e.cfg.BufferPackets
}

// AnyVCFree reports whether any VC of channel ch can accept a packet.
func (e *Engine) AnyVCFree(ch int32) bool {
	base := ch * int32(e.cfg.VCs)
	for vc := int32(0); vc < int32(e.cfg.VCs); vc++ {
		if int(e.vcOccupied[base+vc]) < e.cfg.BufferPackets {
			return true
		}
	}
	return false
}

// RandomFreeVC picks a VC of channel ch uniformly at random among those
// with buffer space (reservoir sampling on e.Rand()) and returns its queue
// code, or -1 when every VC is full.
func (e *Engine) RandomFreeVC(ch int32) int32 {
	base := ch * int32(e.cfg.VCs)
	chosen, count := int32(-1), 0
	for vc := int32(0); vc < int32(e.cfg.VCs); vc++ {
		if int(e.vcOccupied[base+vc]) < e.cfg.BufferPackets {
			count++
			if count == 1 || e.rnd.Intn(count) == 0 {
				chosen = base + vc
			}
		}
	}
	return chosen
}
