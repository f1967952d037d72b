// Package lint is rfclint's engine: a small, stdlib-only static analyzer
// that enforces this repository's determinism invariants. Every exhibit —
// the Theorem 4.2 trials, the Figure 8-12 sweeps, Table 3, and the
// byte-identical shard merges — relies on deterministic packages drawing
// randomness only from coordinate-derived rng streams, never from wall-clock
// time, Go's randomized map iteration order, or order-dependent stream
// splitting inside parallel workers. The rules here turn that convention
// into a build gate.
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
	"strings"
	"sync"
)

// Config selects which packages the determinism rules apply to. Paths are
// full import paths; DefaultConfig derives the repository's set from the
// module path.
type Config struct {
	// Module is the module path the analyzed packages belong to; the
	// interprocedural rules use it to tell module functions from the
	// standard library.
	Module string

	// Deterministic lists the import paths whose packages must obey the
	// determinism invariants (exact match, one entry per package).
	Deterministic []string

	// Server lists import paths explicitly recognized as non-deterministic
	// serving packages (HTTP daemons and their clients): wall-clock reads
	// there feed metrics and timeouts, never exhibit bytes. A path listed in
	// both Server and Deterministic is treated as Server — the declaration
	// that a package serves overrides the blanket deterministic set.
	Server []string

	// AllowFiles lists slash-separated file-path suffixes exempt from the
	// nondet-source rule (e.g. "internal/engine/progress.go", whose
	// wall-clock reads feed human-facing progress lines, never results).
	AllowFiles []string

	// RngPkg is the import path of the coordinate-seeded rng package.
	RngPkg string

	// EnginePkg is the import path of the parallel worker-pool package whose
	// Run/RunShard closures must not touch parent rng streams.
	EnginePkg string

	// ExhibitPkg is the import path of the exhibit registry package; the
	// handler-purity rule treats every Run field of an Exhibit composite
	// literal as a purity entry point.
	ExhibitPkg string
}

// modulePath returns the configured module path.
func (c *Config) modulePath() string { return c.Module }

// DefaultConfig returns the repository configuration for a module rooted at
// the given module path: every package that feeds exhibit bytes is
// deterministic; cmd/ and examples/ are free to read clocks and flags.
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
		Module:        module,
		Deterministic: det,
		Server: []string{
			module + "/internal/service",
			module + "/internal/service/client",
			module + "/cmd/rfcd",
		},
		AllowFiles: []string{"internal/engine/progress.go"},
		RngPkg:     module + "/internal/rng",
		EnginePkg:  module + "/internal/engine",
		ExhibitPkg: module + "/internal/exhibit",
	}
}

// IsDeterministic reports whether the import path is subject to the
// determinism rules. Server packages never are, even when also listed as
// deterministic.
func (c *Config) IsDeterministic(path string) bool {
	for _, p := range c.Server {
		if p == path {
			return false
		}
	}
	for _, p := range c.Deterministic {
		if p == path {
			return true
		}
	}
	return false
}

// fileAllowed reports whether filename (as recorded in the fileset) is
// exempt from nondet-source via Config.AllowFiles.
func (c *Config) fileAllowed(filename string) bool {
	f := strings.ReplaceAll(filename, "\\", "/")
	for _, suf := range c.AllowFiles {
		if strings.HasSuffix(f, suf) {
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

// GraphRule is one named interprocedural check over the linked program.
type GraphRule struct {
	Name string
	Doc  string
	// Check returns the rule's findings for the whole program (suppression
	// is applied by the driver, not the rule).
	Check func(cfg *Config, prog *Program) []Finding
}

// GraphRules returns every interprocedural rule in a stable order.
func GraphRules() []GraphRule {
	return []GraphRule{
		{
			Name:  "handler-purity",
			Doc:   "HTTP handlers and exhibit Run functions must reach only deterministic sources through the call graph (diagnostics carry a witness path)",
			Check: checkHandlerPurity,
		},
	}
}

// Run loads every package directory in dirs (see Loader) and applies all
// per-package and interprocedural rules, returning the unsuppressed
// findings sorted by position. A load or type-check failure is an error:
// the linter refuses to bless a tree it could not fully analyze.
func Run(cfg *Config, ld *Loader, dirs []string) ([]Finding, error) {
	return RunParallel(cfg, ld, dirs, 1)
}

// RunParallel is Run with up to workers packages loaded and summarized
// concurrently. Output is deterministic regardless of worker count:
// per-package results are merged in package order and findings are sorted
// at the end.
func RunParallel(cfg *Config, ld *Loader, dirs []string, workers int) ([]Finding, error) {
	if workers < 1 {
		workers = 1
	}
	// Phase 0: load (parse + type-check) the requested packages.
	pkgs := make([]*Package, len(dirs))
	errs := make([]error, len(dirs))
	runWorkers(len(dirs), workers, func(i int) {
		pkgs[i], errs[i] = ld.LoadDir(dirs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	requested := map[string]bool{}
	for _, pkg := range pkgs {
		requested[pkg.Path] = true
	}
	// The program closure adds the module-internal dependencies of the
	// requested packages, so interprocedural rules see the whole call graph
	// even for a partial lint.
	closure := programClosure(ld, pkgs)

	// Phase 1: per-package summaries (and per-package rules for the
	// requested set), in parallel.
	results := make([]*pkgResult, len(closure))
	perPkg := make([][]Finding, len(closure))
	runWorkers(len(closure), workers, func(i int) {
		pkg := closure[i]
		results[i] = collectPackage(cfg, pkg)
		if requested[pkg.Path] {
			for _, rule := range Rules() {
				perPkg[i] = append(perPkg[i], rule.Check(cfg, pkg)...)
			}
		}
	})

	// Phase 2: link and run the interprocedural rules sequentially.
	prog := link(cfg, results)
	var all []Finding
	allow := allowSet{}
	for _, r := range results {
		for k, v := range r.allow {
			allow[k] = v
		}
	}
	for _, fs := range perPkg {
		all = append(all, fs...)
	}
	for _, rule := range GraphRules() {
		all = append(all, rule.Check(cfg, prog)...)
	}
	kept := all[:0]
	for _, f := range all {
		if !allow.suppressed(f) {
			kept = append(kept, f)
		}
	}
	all = kept
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

// programClosure returns the requested packages plus their module-internal
// transitive dependencies (already loaded as a side effect of
// type-checking), sorted by import path.
func programClosure(ld *Loader, pkgs []*Package) []*Package {
	seen := map[string]*Package{}
	var visit func(p *Package)
	visit = func(p *Package) {
		if p == nil || seen[p.Path] != nil {
			return
		}
		seen[p.Path] = p
		for _, imp := range p.Types.Imports() {
			path := imp.Path()
			if path == ld.Module || strings.HasPrefix(path, ld.Module+"/") {
				visit(ld.Loaded(path))
			}
		}
	}
	for _, p := range pkgs {
		visit(p)
	}
	paths := make([]string, 0, len(seen))
	for path := range seen {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	out := make([]*Package, len(paths))
	for i, path := range paths {
		out[i] = seen[path]
	}
	return out
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
