// Package goldencases defines the fixed-seed simulation points shared by
// the golden determinism regression (internal/simcore's golden_test) and
// the generator that refreshes its testdata (internal/simcore/gengolden).
//
// The cases were captured from the pre-unification simulators (the separate
// simnet and simdirect cores) and pin the unified simcore engine to their
// exact fixed-seed Results, packet for packet: any change to the engine's
// RNG consumption order, arbitration scan order or event scheduling shows up
// as a byte difference. They deliberately cover every policy branch of both
// network classes: plain and hash up/down routing, infinite-sink reception,
// minimal buffering, request-refresh extremes, faulted topologies with
// unroutable pairs, and the hop-indexed VC scheme of the direct networks.
//
// FlowCases, the flow-level view used by internal/flow's cross-validation
// goldens, has 14 points: the 12 of Cases plus two uniform cft8x3 points
// (loads 0.5 and 0.4) whose cycle-engine counterparts exercised engine
// modes that no longer exist. Each flow point is seeded by its index, so
// the list keeps its original order.
package goldencases

import (
	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simdirect"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Case is one golden point: a name and a closure building the network,
// pattern and configuration from fixed seeds and running one simulation.
type Case struct {
	Name string
	Run  func() (simnet.Result, error)
}

// closCfg is the shared small Table-2-style configuration of the folded
// Clos cases.
func closCfg() simnet.Config {
	return simnet.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 7}
}

// closCase simulates a folded Clos point on the indirect (up/down) engine.
func closCase(name string, build func() (*topology.Clos, error),
	pat func(terms int) traffic.Pattern, load float64,
	mutate func(*simnet.Config)) Case {
	return Case{Name: name, Run: func() (simnet.Result, error) {
		c, err := build()
		if err != nil {
			return simnet.Result{}, err
		}
		ud := routing.New(c)
		cfg := closCfg()
		if mutate != nil {
			mutate(&cfg)
		}
		return simnet.New(c, ud, pat(c.Terminals()), cfg).Run(load), nil
	}}
}

// rrnCase simulates a random regular network point on the direct engine.
func rrnCase(name string, n, d, tps int, pat func(terms int) traffic.Pattern, load float64) Case {
	return Case{Name: name, Run: func() (simnet.Result, error) {
		rrn, err := topology.NewRRN(n, d, tps, rng.New(77))
		if err != nil {
			return simnet.Result{}, err
		}
		cfg := simdirect.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 5, VCs: 8}
		s, err := simdirect.New(rrn, pat(rrn.Terminals()), cfg)
		if err != nil {
			return simnet.Result{}, err
		}
		return s.Run(load), nil
	}}
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

// FlowCase is the topology/pattern view of one golden point, used by the
// flow-level backend's cross-validation goldens (internal/flow): same
// builders, same fixed seeds and same names as Cases, so the two backends
// are pinned against identical networks. Exactly one of BuildClos/BuildRRN
// is non-nil. Engine-config mutations of the cycle cases (VCs, buffering,
// request refresh) have no flow-level counterpart and are omitted.
type FlowCase struct {
	Name      string
	Load      float64
	BuildClos func() (*topology.Clos, error)
	BuildRRN  func() (*topology.RRN, error)
	Pattern   func(terms int) traffic.Pattern
}

// buildRRN reconstructs the RRN of rrnCase with its fixed generation seed.
func buildRRN(n, d, tps int) func() (*topology.RRN, error) {
	return func() (*topology.RRN, error) {
		return topology.NewRRN(n, d, tps, rng.New(77))
	}
}

// FlowCases returns the flow-level golden points in their canonical order:
// every Case's network and pattern, plus the two flow-only points named in
// the package doc. The order is fixed because each point is seeded by its
// index.
func FlowCases() []FlowCase {
	return []FlowCase{
		{Name: "clos/cft8x3/uniform/0.2", Load: 0.2, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/0.9", Load: 0.9, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/pairing/0.6", Load: 0.6, BuildClos: cft(8, 3), Pattern: pairing},
		{Name: "clos/cft8x3/fixed-random/0.8/infinite-sink", Load: 0.8, BuildClos: cft(8, 3), Pattern: fixedRandom},
		{Name: "clos/cft8x3/uniform/0.6/hash-routing", Load: 0.6, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/0.5/auto-warmup", Load: 0.5, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/0.4/timeline", Load: 0.4, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/1.0/1vc-1buf", Load: 1.0, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/cft8x3/uniform/0.7/refresh-1", Load: 0.7, BuildClos: cft(8, 3), Pattern: uniform},
		{Name: "clos/rfc8x3x16/uniform/0.5", Load: 0.5, BuildClos: rfc(8, 3, 16), Pattern: uniform},
		{Name: "clos/cft4x2-isolated-leaf/uniform/0.5", Load: 0.5, BuildClos: isolatedLeafCFT, Pattern: uniform},
		{Name: "rrn32x4x2/uniform/0.5", Load: 0.5, BuildRRN: buildRRN(32, 4, 2), Pattern: uniform},
		{Name: "rrn64x6x3/uniform/1.0", Load: 1.0, BuildRRN: buildRRN(64, 6, 3), Pattern: uniform},
		{Name: "rrn64x6x3/pairing/0.8", Load: 0.8, BuildRRN: buildRRN(64, 6, 3), Pattern: pairing},
	}
}

// Cases returns the golden points in their canonical order.
func Cases() []Case {
	return []Case{
		closCase("clos/cft8x3/uniform/0.2", cft(8, 3), uniform, 0.2, nil),
		closCase("clos/cft8x3/uniform/0.9", cft(8, 3), uniform, 0.9, nil),
		closCase("clos/cft8x3/pairing/0.6", cft(8, 3), pairing, 0.6, nil),
		closCase("clos/cft8x3/fixed-random/0.8/infinite-sink", cft(8, 3), fixedRandom, 0.8,
			func(c *simnet.Config) { c.InfiniteSink = true }),
		closCase("clos/cft8x3/uniform/0.6/hash-routing", cft(8, 3), uniform, 0.6,
			func(c *simnet.Config) { c.HashRouting = true }),
		closCase("clos/cft8x3/uniform/1.0/1vc-1buf", cft(8, 3), uniform, 1.0,
			func(c *simnet.Config) { c.VCs = 1; c.BufferPackets = 1 }),
		closCase("clos/cft8x3/uniform/0.7/refresh-1", cft(8, 3), uniform, 0.7,
			func(c *simnet.Config) { c.RequestRefresh = 1 }),
		closCase("clos/rfc8x3x16/uniform/0.5", rfc(8, 3, 16), uniform, 0.5, nil),
		closCase("clos/cft4x2-isolated-leaf/uniform/0.5", isolatedLeafCFT, uniform, 0.5, nil),
		rrnCase("rrn32x4x2/uniform/0.5", 32, 4, 2, uniform, 0.5),
		rrnCase("rrn64x6x3/uniform/1.0", 64, 6, 3, uniform, 1.0),
		rrnCase("rrn64x6x3/pairing/0.8", 64, 6, 3, pairing, 0.8),
	}
}
