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
//   - Paper experiments (Figures 5-12, Table 3): the Fig*/Table*/...
//     functions returning printable Reports.
//
// Several types here are aliases of internal types (Clos, RRN, Params,
// Router, SimConfig, SimResult, TrafficPattern, Report). Every exported
// method and field of an aliased type is public API of this package, even
// where this file names none of them: removing or renaming one is an API
// change and is recorded in README's API-change notes.
package rfclos

import (
	"rfclos/internal/analysis"
	"rfclos/internal/core"
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

// Fig5Diameter regenerates Figure 5 (diameter evolution) for a radix.
func Fig5Diameter(radix int) *Report { return analysis.Fig5Diameter(radix) }

// Fig6Scalability regenerates Figure 6 (terminals vs radix, levels 2-4).
func Fig6Scalability(radices []int) *Report { return analysis.Fig6Scalability(radices) }

// Fig7Expandability regenerates Figure 7 (cost vs terminals under
// expansion).
func Fig7Expandability(radix, maxTerminals, points int) *Report {
	return analysis.Fig7Expandability(radix, maxTerminals, points)
}

// Costs regenerates the §5 cost comparison table.
func Costs() *Report { return analysis.Costs() }

// Thm42 runs the Theorem 4.2 Monte-Carlo validation with its trials fanned
// out on a worker pool (workers <= 0 means one per CPU). The report is
// byte-identical for any worker count.
func Thm42(n1, trials, workers int, seed uint64) (*Report, error) {
	return analysis.Thm42(n1, trials, workers, seed)
}

// ScenarioSweep runs the Figure 8/9/10 latency-throughput sweep for one of
// the §6 scenarios (index 0..2) at the given scale.
func ScenarioSweep(scale analysis.Scale, scenario int, opts analysis.SimOptions) (*Report, error) {
	scs := analysis.Scenarios(scale)
	if scenario < 0 || scenario >= len(scs) {
		scenario = 0
	}
	return analysis.ScenarioSweep(scs[scenario], opts)
}

// SimOptions configures ScenarioSweep (loads, repetitions, Table 2
// parameters).
type SimOptions = analysis.SimOptions

// Fig11UpDownFaults regenerates Figure 11 (up/down fault tolerance).
func Fig11UpDownFaults(opts analysis.Fig11Options) (*Report, error) {
	return analysis.Fig11UpDownFaults(opts)
}

// Fig11Options configures Fig11UpDownFaults.
type Fig11Options = analysis.Fig11Options

// Fig12FaultThroughput regenerates Figure 12 (throughput under faults).
func Fig12FaultThroughput(opts analysis.Fig12Options) (*Report, error) {
	return analysis.Fig12FaultThroughput(opts)
}

// Fig12Options configures Fig12FaultThroughput.
type Fig12Options = analysis.Fig12Options

// Table3Disconnect regenerates Table 3 (links removed to disconnect).
func Table3Disconnect(opts analysis.Table3Options) (*Report, error) {
	return analysis.Table3Disconnect(opts)
}

// Table3Options configures Table3Disconnect.
type Table3Options = analysis.Table3Options

// Ablations quantifies the simulator design knobs (virtual channels,
// buffer depth, request refresh) on the equal-resources RFC.
func Ablations(opts analysis.AblationOptions) (*Report, error) {
	return analysis.Ablations(opts)
}

// AblationOptions configures Ablations.
type AblationOptions = analysis.AblationOptions

// Structure compares diameter-4 networks on diameter, mean distance,
// bisection and path diversity (§4.2/§7 side metrics).
func Structure(opts analysis.StructureOptions) (*Report, error) { return analysis.Structure(opts) }

// StructureOptions configures Structure.
type StructureOptions = analysis.StructureOptions

// Adversarial drives the equal-resources CFT and RFC with the shift
// permutation at full load (the §4.2 adversarial-traffic discussion).
func Adversarial(opts analysis.AdversarialOptions) (*Report, error) {
	return analysis.Adversarial(opts)
}

// AdversarialOptions configures Adversarial.
type AdversarialOptions = analysis.AdversarialOptions

// TablesReport compares forwarding-state sizes (explicit ECMP tables,
// router bitsets, estimated Jellyfish k-shortest state).
func TablesReport(scale analysis.Scale, kPaths int, seed uint64) (*Report, error) {
	return analysis.TablesReport(scale, kPaths, seed)
}

// Jellyfish runs the RFC-vs-RRN simulated comparison the paper declines to
// perform, using the direct-network simulator with hop-indexed VCs.
func Jellyfish(opts analysis.JellyfishOptions) (*Report, error) { return analysis.Jellyfish(opts) }

// JellyfishOptions configures Jellyfish.
type JellyfishOptions = analysis.JellyfishOptions

// RRNFaults extends the Figure 12 fault methodology to the random baseline:
// RFC vs equal-T RRN throughput under growing link faults, for uniform and
// adversarial shift traffic, both on the unified cycle engine.
func RRNFaults(opts analysis.RRNFaultsOptions) (*Report, error) { return analysis.RRNFaults(opts) }

// RRNFaultsOptions configures RRNFaults.
type RRNFaultsOptions = analysis.RRNFaultsOptions

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
