// Package goldencases defines the fixed-seed golden points shared by the
// cycle engine's golden determinism regression (internal/simcore's
// golden_test) and the flow backend's cross-validation goldens
// (internal/flow), so the two backends are pinned against identical
// networks.
//
// The cycle points were captured from the pre-unification simulators (the
// separate folded-Clos and direct-network cores) and pin the unified
// simcore engine to their exact fixed-seed Results, packet for packet: any
// change to the engine's RNG consumption order, arbitration scan order or
// event scheduling shows up as a byte difference. They deliberately cover
// every policy branch of both network classes: plain and hash up/down
// routing, infinite-sink reception, minimal buffering, request-refresh
// extremes, faulted topologies with unroutable pairs, and the hop-indexed
// VC scheme of the direct networks.
//
// Cases has 14 points. Two uniform cft8x3 points (loads 0.5 and 0.4) are
// flow-only: their cycle-engine counterparts exercised engine modes that
// no longer exist. Each flow point is seeded by its index, so the list
// keeps its original order.
package goldencases

import (
	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/simcore"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Case is one golden point: a network, a traffic pattern and an offered
// load, all from fixed seeds. Exactly one of BuildClos/BuildRRN is non-nil.
type Case struct {
	Name      string
	Load      float64
	BuildClos func() (*topology.Clos, error)
	BuildRRN  func() (*topology.RRN, error)
	Pattern   func(terms int) traffic.Pattern
	// Cycle is the cycle-engine configuration of the point, or nil for a
	// flow-only point. Engine settings (VCs, buffering, request refresh)
	// have no flow-level counterpart.
	Cycle *simcore.Config
}

// closCycle is the shared small Table-2-style configuration of the folded
// Clos points, adjusted by mutate.
func closCycle(mutate func(*simcore.Config)) *simcore.Config {
	c := simcore.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 7}
	if mutate != nil {
		mutate(&c)
	}
	return &c
}

// rrnCycle is the configuration of the RRN points: 8 hop-indexed VCs cover
// their diameters.
func rrnCycle() *simcore.Config {
	return &simcore.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 5, VCs: 8}
}

func cft(radix, levels int) func() (*topology.Clos, error) {
	return func() (*topology.Clos, error) { return topology.NewCFT(radix, levels) }
}

func rfc(radix, levels, leaves int) func() (*topology.Clos, error) {
	return func() (*topology.Clos, error) {
		c, _, _, err := core.GenerateRoutable(core.Params{Radix: radix, Levels: levels, Leaves: leaves}, 20, rng.New(99))
		return c, err
	}
}

// isolatedLeafCFT builds a 4/2 CFT with leaf 0 cut off from the fabric, so
// traffic to and from its terminals exercises the unroutable-drop path.
func isolatedLeafCFT() (*topology.Clos, error) {
	c, err := topology.NewCFT(4, 2)
	if err != nil {
		return nil, err
	}
	leaf0 := c.SwitchID(1, 0)
	for _, up := range append([]int32(nil), c.Up(leaf0)...) {
		c.RemoveLink(leaf0, up)
	}
	return c, nil
}

func uniform(t int) traffic.Pattern { return traffic.NewUniform(t) }
func pairing(t int) traffic.Pattern { return traffic.NewPairing(t, rng.New(3)) }
func fixedRandom(t int) traffic.Pattern {
	return traffic.NewFixedRandom(t, rng.New(4))
}

// buildRRN builds an RRN with the fixed generation seed of every RRN point.
func buildRRN(n, d, tps int) func() (*topology.RRN, error) {
	return func() (*topology.RRN, error) {
		return topology.NewRRN(n, d, tps, rng.New(77))
	}
}

// Cases returns the golden points in their canonical order.
func Cases() []Case {
	return []Case{
		{Name: "clos/cft8x3/uniform/0.2", Load: 0.2, BuildClos: cft(8, 3), Pattern: uniform, Cycle: closCycle(nil)},
		{Name: "clos/cft8x3/uniform/0.9", Load: 0.9, BuildClos: cft(8, 3), Pattern: uniform, Cycle: closCycle(nil)},
		{Name: "clos/cft8x3/pairing/0.6", Load: 0.6, BuildClos: cft(8, 3), Pattern: pairing, Cycle: closCycle(nil)},
		{Name: "clos/cft8x3/fixed-random/0.8/infinite-sink", Load: 0.8, BuildClos: cft(8, 3), Pattern: fixedRandom,
			Cycle: closCycle(func(c *simcore.Config) { c.InfiniteSink = true })},
		{Name: "clos/cft8x3/uniform/0.6/hash-routing", Load: 0.6, BuildClos: cft(8, 3), Pattern: uniform,
			Cycle: closCycle(func(c *simcore.Config) { c.HashRouting = true })},
		{Name: "clos/cft8x3/uniform/0.5/auto-warmup", Load: 0.5, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/0.4/timeline", Load: 0.4, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/1.0/1vc-1buf", Load: 1.0, BuildClos: cft(8, 3), Pattern: uniform,
			Cycle: closCycle(func(c *simcore.Config) { c.VCs = 1; c.BufferPackets = 1 })},
		{Name: "clos/cft8x3/uniform/0.7/refresh-1", Load: 0.7, BuildClos: cft(8, 3), Pattern: uniform,
			Cycle: closCycle(func(c *simcore.Config) { c.RequestRefresh = 1 })},
		{Name: "clos/rfc8x3x16/uniform/0.5", Load: 0.5, BuildClos: rfc(8, 3, 16), Pattern: uniform, Cycle: closCycle(nil)},
		{Name: "clos/cft4x2-isolated-leaf/uniform/0.5", Load: 0.5, BuildClos: isolatedLeafCFT, Pattern: uniform, Cycle: closCycle(nil)},
		{Name: "rrn32x4x2/uniform/0.5", Load: 0.5, BuildRRN: buildRRN(32, 4, 2), Pattern: uniform, Cycle: rrnCycle()},
		{Name: "rrn64x6x3/uniform/1.0", Load: 1.0, BuildRRN: buildRRN(64, 6, 3), Pattern: uniform, Cycle: rrnCycle()},
		{Name: "rrn64x6x3/pairing/0.8", Load: 0.8, BuildRRN: buildRRN(64, 6, 3), Pattern: pairing, Cycle: rrnCycle()},
	}
}
