// Package lint is rfclint's engine: a small, stdlib-only static analyzer
// that enforces this repository's determinism invariants. Every exhibit —
// the Theorem 4.2 trials, the Figure 8-12 sweeps, Table 3, and the
// byte-identical shard merges — and every rfcd response rely on
// deterministic packages drawing randomness only from coordinate-derived
// rng streams, never from wall-clock time, Go's randomized map iteration
// order, or order-dependent stream splitting inside parallel workers. The
// rules here turn that convention into a build gate.
//
// The analyzer loads packages with go/parser and type-checks them with
// go/types through a hybrid importer (module packages from source, standard
// library via go/importer's source mode), so it needs nothing outside the
// standard library and the checked-out tree.
//
// Findings can be suppressed per line with a `//rfclint:allow <rule>`
// comment on the offending line or the line directly above it; see
// suppress.go.
package lint

import (
	"fmt"
	"go/token"
	"sort"
	"sync"
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
	// Check returns the rule's findings for pkg (suppression is applied by
	// the driver, not the rule).
	Check func(cfg *Config, pkg *Package) []Finding
}

// Rules returns every rule in a stable order.
func Rules() []Rule {
	return []Rule{
		{
			Name:  "nondet-source",
			Doc:   "deterministic packages must not import math/rand or crypto/rand, or call time.Now/time.Since",
			Check: checkNondetSource,
		},
		{
			Name:  "map-range-order",
			Doc:   "ranging over a map with order-sensitive effects (append, rng draws, report/observation writes) in the body",
			Check: checkMapRangeOrder,
		},
		{
			Name:  "split-in-parallel",
			Doc:   "rng.Split or a captured parent rng stream inside a worker closure passed to engine.Run/RunShard; derive streams from job coordinates instead",
			Check: checkSplitInParallel,
		},
		{
			Name:  "seed-coord-literal",
			Doc:   "the same string literal passed to rng.StringCoord at two call sites in one package: the \"independent\" streams are identical",
			Check: checkSeedCoordLiteral,
		},
	}
}

// Run loads every package directory in dirs (see Loader) and applies every
// rule, returning the unsuppressed findings sorted by position. A load or
// type-check failure is an error: the linter refuses to bless a tree it
// could not fully analyze.
func Run(cfg *Config, ld *Loader, dirs []string) ([]Finding, error) {
	return RunParallel(cfg, ld, dirs, 1)
}

// RunParallel is Run with up to workers packages loaded and checked
// concurrently. Output is deterministic regardless of worker count:
// findings are sorted at the end.
func RunParallel(cfg *Config, ld *Loader, dirs []string, workers int) ([]Finding, error) {
	if workers < 1 {
		workers = 1
	}
	perPkg := make([][]Finding, len(dirs))
	errs := make([]error, len(dirs))
	runWorkers(len(dirs), workers, func(i int) {
		pkg, err := ld.LoadDir(dirs[i])
		if err != nil {
			errs[i] = err
			return
		}
		allow := allowIndex(pkg)
		for _, rule := range Rules() {
			for _, f := range rule.Check(cfg, pkg) {
				if !allow.suppressed(f) {
					perPkg[i] = append(perPkg[i], f)
				}
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var all []Finding
	for _, fs := range perPkg {
		all = append(all, fs...)
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
	return all, nil
}

// runWorkers runs fn(0..n-1) on up to workers goroutines.
func runWorkers(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
