// Package rfclos is the public API of this repository: a library for
// building, routing, analysing and simulating Random Folded Clos (RFC)
// datacenter networks — the topology proposed in "Random Folded Clos
// Topologies for Datacenter Networks" (Camarero, Martínez, Beivide, HPCA
// 2017) — together with the baselines the paper compares against
// (commodity fat-trees, orthogonal fat-trees, k-ary l-trees and
// Jellyfish-style random regular networks).
//
// The package is a facade over the implementation packages in internal/;
// everything a downstream user needs is exported here:
//
//   - Topology construction: NewRFC, NewCFT, NewOFT, NewKaryTree, NewRRN.
//   - Theorem 4.2 threshold math: ThresholdRadix, MaxLeaves, MaxTerminals,
//     XParam, SuccessProbability.
//   - Deadlock-free up/down ECMP routing: NewRouter and the Router type.
//   - Incremental expansion (§5): Expand.
//   - Cycle-level simulation (§6, Table 2): Simulate and SimConfig.
//   - Paper experiments (Figures 5-12, Table 3, Theorem 4.2 and the
//     extensions): RunExhibit, by rfcpaper exhibit id, with ExhibitParams,
//     returning a printable Report.
//
// Several types here are aliases of internal types (Clos, RRN, Params,
// Router, SimConfig, SimResult, TrafficPattern, Report, ExhibitParams).
// Every exported method and field of an aliased type is public API of this
// package, even where this file names none of them: removing or renaming
// one is an API change and is recorded in README's API-change notes.
package rfclos

import (
	"fmt"
	"strings"

	"rfclos/internal/analysis"
	"rfclos/internal/core"
	"rfclos/internal/exhibit"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Clos is a folded Clos network: levels of switches with down- and
// up-links, leaf switches carrying compute nodes.
type Clos = topology.Clos

// RRN is a Jellyfish-style random regular network.
type RRN = topology.RRN

// Params identifies a radix-regular RFC: radix R, level count l and leaf
// switch count N1; terminals T = N1·R/2.
type Params = core.Params

// Router is the up/down equal-cost multi-path routing state of a folded
// Clos network (Theorem 4.2's common-ancestor routing).
type Router = routing.UpDown

// SimConfig carries the Table 2 simulation parameters.
type SimConfig = simnet.Config

// SimResult reports a simulation run: accepted load, latency statistics
// and conservation counters.
type SimResult = simnet.Result

// TrafficPattern generates packet destinations (uniform, random-pairing,
// fixed-random).
type TrafficPattern = traffic.Pattern

// Report is a printable experiment result (call Format).
type Report = analysis.Report

// Scale selects experiment sizing: ScaleSmall is the laptop-friendly
// radix-16 analogue, ScalePaper the paper's exact radix-36 scenarios.
const (
	ScaleSmall = analysis.ScaleSmall
	ScalePaper = analysis.ScalePaper
)

// NewRFC generates a random folded Clos network with up/down routing,
// retrying generation as Theorem 4.2 prescribes (success probability 1/e at
// the threshold). It returns the network and its router.
func NewRFC(p Params, seed uint64) (*Clos, *Router, error) {
	c, ud, _, err := core.GenerateRoutable(p, 50, rng.New(seed))
	return c, ud, err
}

// NewRFCUnchecked generates a random folded Clos without requiring the
// common-ancestor property — useful for studying the threshold itself.
func NewRFCUnchecked(p Params, seed uint64) (*Clos, error) {
	return core.Generate(p, rng.New(seed))
}

// NewCFT builds the R-commodity fat-tree (2(R/2)^l terminals).
func NewCFT(radix, levels int) (*Clos, error) { return topology.NewCFT(radix, levels) }

// NewCFTWithTerminals builds a CFT wiring with only termsPerLeaf <= R/2
// compute nodes per leaf (a partially populated fat-tree).
func NewCFTWithTerminals(radix, levels, termsPerLeaf int) (*Clos, error) {
	return topology.NewCFTWithTerminals(radix, levels, termsPerLeaf)
}

// NewOFT builds the l-level orthogonal fat-tree of prime-power order q.
func NewOFT(q, levels int) (*Clos, error) { return topology.NewOFT(q, levels) }

// NewKaryTree builds the k-ary l-tree.
func NewKaryTree(k, levels int) (*Clos, error) { return topology.NewKaryTree(k, levels) }

// NewRRN builds a Jellyfish-style random regular network with n switches of
// network degree d and t terminals per switch.
func NewRRN(n, d, t int, seed uint64) (*RRN, error) {
	return topology.NewRRN(n, d, t, rng.New(seed))
}

// NewRouter computes up/down routing state for any folded Clos network.
// Call (*Router).Rebuild after removing links.
func NewRouter(c *Clos) *Router { return routing.New(c) }

// ParamsForTerminals sizes an RFC of the given radix and level count to at
// least t terminals.
func ParamsForTerminals(radix, levels, t int) Params {
	return core.ParamsForTerminals(radix, levels, t)
}

// ThresholdRadix returns Theorem 4.2's sharp threshold radix
// 2(N1 ln N1)^(1/(2(l-1))) for up/down routability.
func ThresholdRadix(n1, levels int) float64 { return core.ThresholdRadix(n1, levels) }

// MaxLeaves returns the largest leaf count realizable with up/down routing
// at the given radix and level count.
func MaxLeaves(radix, levels int) int { return core.MaxLeaves(radix, levels) }

// MaxTerminals is MaxLeaves expressed in compute nodes.
func MaxTerminals(radix, levels int) int { return core.MaxTerminals(radix, levels) }

// XParam returns the Theorem 4.2 offset x implied by a radix choice;
// SuccessProbability(x) = exp(-exp(-x)) is the limiting routability
// probability.
func XParam(radix, n1, levels int) float64 { return core.XParam(radix, n1, levels) }

// SuccessProbability returns exp(-exp(-x)).
func SuccessProbability(x float64) float64 { return core.SuccessProbability(x) }

// Expand applies n minimal strong expansions to an RFC (§5): each adds two
// switches per non-top level, one top switch and R terminals, rewiring
// (l-1)·R existing links. Returns the expanded network and the rewired
// link count; the input is not mutated.
func Expand(c *Clos, n int, seed uint64) (*Clos, int, error) {
	return core.Expand(c, n, rng.New(seed))
}

// NewTraffic constructs a §6 traffic pattern by name ("uniform",
// "random-pairing", "fixed-random") over t terminals.
func NewTraffic(name string, t int, seed uint64) (TrafficPattern, error) {
	return traffic.New(name, t, rng.New(seed))
}

// TrafficNames lists the §6 pattern names.
func TrafficNames() []string { return traffic.Names() }

// Simulate runs one virtual cut-through simulation of the network under the
// pattern at the given offered load (phits per terminal per cycle).
func Simulate(c *Clos, r *Router, pat TrafficPattern, load float64, cfg SimConfig) SimResult {
	return simnet.New(c, r, pat, cfg).Run(load)
}

// DefaultSimConfig returns the Table 2 parameters.
func DefaultSimConfig() SimConfig { return simnet.DefaultConfig() }

// ExhibitParams carries the run settings of the paper's exhibits: scale,
// seed, trials, cycles, repetitions, workers, loads, patterns, reception
// model, backend, progress sink and shard. Zero fields take each exhibit's
// defaults.
type ExhibitParams = analysis.Params

// RunExhibit produces one of the paper's exhibits (Figures 5-12, Table 3,
// Theorem 4.2, the §5 costs and the extension experiments) by its rfcpaper
// -exhibit id ("fig5", "fig8", "table3", ...; rfcpaper -list names them
// all). The report is the one rfcpaper prints for the same settings.
func RunExhibit(id string, p ExhibitParams) (*Report, error) {
	e, ok := exhibit.Lookup(id)
	if !ok {
		return nil, fmt.Errorf("rfclos: unknown exhibit %q (known: %s)", id, strings.Join(exhibit.IDs(), ", "))
	}
	return e.Run(p)
}

// GeneralParams describes an arbitrary (non-radix-regular) folded Clos
// shape per Definition 4.1.
type GeneralParams = core.GeneralParams

// NewGeneralRFC generates a random folded Clos with arbitrary level sizes
// and degrees (Definition 4.1).
func NewGeneralRFC(p GeneralParams, seed uint64) (*Clos, error) {
	return core.GenerateGeneral(p, rng.New(seed))
}

// NewHashnetParams returns the equal-level-size shape of Fahlman's Hashnet.
func NewHashnetParams(n, levels, d, termsPerLeaf int) GeneralParams {
	return core.NewHashnetParams(n, levels, d, termsPerLeaf)
}

// ExpansionStep is one row of a PlanExpansion schedule.
type ExpansionStep = core.ExpansionStep

// PlanExpansion computes the §5 expansion schedule from fromTerminals to
// toTerminals at the given radix and level count.
func PlanExpansion(radix, levels, fromTerminals, toTerminals, maxRows int) ([]ExpansionStep, error) {
	return core.PlanExpansion(radix, levels, fromTerminals, toTerminals, maxRows)
}
