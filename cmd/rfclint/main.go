// Command rfclint is the repository's determinism linter: it statically
// enforces the invariants every exhibit's byte-identical reproducibility
// rests on. Deterministic packages must draw randomness only from
// internal/rng streams derived from seeds and job coordinates — never from
// Go's randomized map iteration order or a parent stream shared by
// parallel workers. The rules are per-function; rfcd's service packages
// are on the deterministic list, and every module package a deterministic
// package imports is deterministic too (internal/obs, the telemetry
// package, aside), so the rules also cover everything an HTTP handler or
// an exhibit Run function can reach. That no deterministic package imports
// math/rand, crypto/rand or time (so none reads the wall clock) is checked
// by internal/lint's TestDeterministicImportClosure, not by a rule. Lock
// discipline is left to the race detector (`go test -race`), not to
// annotations.
//
// Usage:
//
//	rfclint [-rules] [packages]
//
// Packages are go tool patterns resolved from the current directory
// (default "./...", which skips testdata and nested modules); rfclint
// lists them with `go list -export -deps`, so it needs the go command on
// PATH. Findings print one per line as file:line:col: rule: message. A
// clean run prints the single line "rfclint: N packages clean". There is
// no suppression comment and no accept list: every finding fails the run.
// See the "Determinism invariants" section of DESIGN.md.
//
// Exit status: 0 clean, 1 findings, 2 usage or analysis error (a package
// go list reports broken, or a type error).
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

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fatal(err)
	}
	module := ""
	if len(pkgs) > 0 {
		module = pkgs[0].Module
	}
	findings := lint.Run(lint.DefaultConfig(module), pkgs)
	cwd, err := os.Getwd()
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
	fmt.Printf("rfclint: %d packages clean\n", len(pkgs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfclint:", err)
	os.Exit(2)
}
