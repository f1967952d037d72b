// Command rfclint is the repository's determinism linter: it statically
// enforces the invariants every exhibit's byte-identical reproducibility
// rests on. Deterministic packages must draw randomness only from
// internal/rng streams derived from seeds and job coordinates — never from
// the wall clock, math/rand, Go's randomized map iteration order, or a
// parent stream shared by parallel workers. The rules are per-function;
// rfcd's service packages are on the deterministic list, and every module
// package a deterministic package imports is deterministic too
// (internal/obs, the telemetry package, aside), so the rules also cover
// everything an HTTP handler or an exhibit Run function can reach. Lock
// discipline is left to the race detector (`go test -race`), not to
// annotations.
//
// Usage:
//
//	rfclint [-rules] [packages]
//
// Packages are directories relative to the current module; a trailing
// "/..." walks recursively (default "./..."). Findings print one per line
// as file:line:col: rule: message. A clean run prints the single line
// "rfclint: N packages clean". There is no suppression comment and no
// accept list: every finding fails the run. See the "Determinism
// invariants" section of DESIGN.md.
//
// Exit status: 0 clean, 1 findings, 2 usage or analysis error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"rfclos/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "list the lint rules and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: rfclint [flags] [packages]\n\npackages default to ./... (the whole module)\n\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *rules {
		for _, r := range lint.Rules() {
			fmt.Printf("%-20s %s\n", r.Name, r.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fatal(err)
	}
	ld, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dirs, err := lint.Expand(cwd, patterns)
	if err != nil {
		fatal(err)
	}

	findings, err := lint.Run(lint.DefaultConfig(ld.Module), ld, dirs)
	if err != nil {
		fatal(err)
	}
	for _, f := range findings {
		// Report paths relative to the working directory, like go vet.
		if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
			f.Pos.Filename = rel
		}
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
	fmt.Printf("rfclint: %d packages clean\n", len(dirs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfclint:", err)
	os.Exit(2)
}
