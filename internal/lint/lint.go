// Package lint is rfclint's engine: a small static analyzer, built on the
// standard library alone, that enforces this repository's determinism
// invariants. Every exhibit — the Theorem 4.2 trials, the Figure 8-12
// sweeps, Table 3, and the byte-identical shard merges — and every rfcd
// response rely on deterministic packages drawing randomness only from
// coordinate-derived rng streams, never from Go's randomized map iteration
// order or a parent stream shared by parallel workers. The rules here turn
// that convention into a build gate. That no deterministic package imports
// math/rand, crypto/rand or time is an import check over the same package
// listing (TestDeterministicImportClosure), not a rule.
//
// Load lists packages with one `go list -export -deps` call and
// type-checks each listed package's files with go/types, resolving every
// import from the export data go list wrote.
//
// Run reports every finding: there is no suppression comment and no accept
// list, so an intentional exception has to be restructured away.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// Config selects which packages the determinism rules apply to. Paths are
// full import paths; DefaultConfig derives the repository's set from the
// module path.
type Config struct {
	// Deterministic lists the import paths whose packages must obey the
	// determinism invariants (exact match, one entry per package).
	Deterministic []string

	// RngPkg is the import path of the coordinate-seeded rng package.
	RngPkg string

	// EnginePkg is the import path of the parallel worker-pool package whose
	// Run/RunShard closures must not touch parent rng streams.
	EnginePkg string
}

// DefaultConfig returns the repository configuration for a module rooted at
// the given module path: every package that feeds exhibit or rfcd response
// bytes is deterministic. Left off are cmd/ and examples/, which own
// flags, clocks and I/O, and internal/obs, the one library package that
// reads the clock (its API hands no time value back). Every module package
// a deterministic package imports is itself deterministic or internal/obs
// (TestDeterministicImportClosure), so the per-function rules cover every
// function an exhibit Run or an rfcd handler can reach.
func DefaultConfig(module string) *Config {
	rel := []string{
		"", // the facade package at the module root
		"internal/analysis",
		"internal/core",
		"internal/engine",
		"internal/exhibit",
		"internal/flow",
		"internal/gf",
		"internal/graph",
		"internal/metrics",
		"internal/rng",
		"internal/routing",
		"internal/service",
		"internal/service/client",
		"internal/simcore",
		"internal/simcore/goldencases",
		"internal/simdirect",
		"internal/simnet",
		"internal/topology",
		"internal/traffic",
	}
	det := make([]string, len(rel))
	for i, r := range rel {
		if r == "" {
			det[i] = module
		} else {
			det[i] = module + "/" + r
		}
	}
	return &Config{
		Deterministic: det,
		RngPkg:        module + "/internal/rng",
		EnginePkg:     module + "/internal/engine",
	}
}

// IsDeterministic reports whether the import path is subject to the
// determinism rules.
func (c *Config) IsDeterministic(path string) bool {
	for _, p := range c.Deterministic {
		if p == path {
			return true
		}
	}
	return false
}

// Finding is one diagnostic: a rule violation at a position.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Rule is one named check over a type-checked package.
type Rule struct {
	Name string
	Doc  string
	// Check returns the rule's findings for pkg; Run reports all of them.
	Check func(cfg *Config, pkg *Package) []Finding
}

// Rules returns every rule in a stable order.
func Rules() []Rule {
	return []Rule{
		{
			Name:  "map-range-order",
			Doc:   "ranging over a map with order-sensitive effects (append, rng draws, report/observation writes) in the body",
			Check: checkMapRangeOrder,
		},
		{
			Name:  "split-in-parallel",
			Doc:   "a captured parent rng stream inside a worker closure passed to engine.Run/RunShard; derive streams from job coordinates instead",
			Check: checkSplitInParallel,
		},
		{
			Name:  "seed-coord-literal",
			Doc:   "the same string literal passed to rng.StringCoord at two call sites in one package: the \"independent\" streams are identical",
			Check: checkSeedCoordLiteral,
		},
	}
}

// Run applies every rule to every package and returns the findings sorted
// by position.
func Run(cfg *Config, pkgs []*Package) []Finding {
	var all []Finding
	for _, pkg := range pkgs {
		for _, rule := range Rules() {
			all = append(all, rule.Check(cfg, pkg)...)
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return all
}
