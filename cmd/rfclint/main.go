// Command rfclint is the repository's determinism linter: it statically
// enforces the invariants every exhibit's byte-identical reproducibility
// rests on. Deterministic packages must draw randomness only from
// internal/rng streams derived from seeds and job coordinates — never from
// the wall clock, math/rand, Go's randomized map iteration order, or
// order-dependent stream splitting inside parallel workers. The rules are
// per-function; rfcd's service packages are on the deterministic list, and
// every module package a deterministic package imports is deterministic
// too (internal/obs, the telemetry package, aside), so the rules also cover
// everything an HTTP handler or an exhibit Run function can reach. Lock
// discipline is left to the race detector (`go test -race`), not to
// annotations.
//
// Usage:
//
//	rfclint [-rules] [-json] [-baseline file] [-write-baseline file] [-workers n] [packages]
//
// Packages are directories relative to the current module; a trailing
// "/..." walks recursively (default "./..."). Findings print one per line
// as file:line:col: rule: message, and any finding makes the exit status
// non-zero, so CI can gate on it. -json instead emits a versioned,
// byte-stable JSON report with module-root-relative paths. -baseline
// filters findings through an accept list and additionally fails (exit 3)
// on stale entries, so the accepted set only ever shrinks;
// -write-baseline regenerates that list from the current findings. A
// finding is silenced at source with a `//rfclint:allow <rule>` comment on
// the offending line or the line above it; see the "Determinism
// invariants" section of DESIGN.md.
//
// Exit status: 0 clean, 1 findings, 2 usage or analysis error, 3 stale
// baseline entries.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"rfclos/internal/lint"
)

func main() {
	rules := flag.Bool("rules", false, "list the lint rules and exit")
	quiet := flag.Bool("quiet", false, "suppress the all-clear summary line")
	jsonOut := flag.Bool("json", false, "emit a versioned JSON report on stdout")
	baselinePath := flag.String("baseline", "", "filter findings through the accept list in `file`; stale entries are an error")
	writeBaseline := flag.String("write-baseline", "", "write the current findings as an accept list to `file` and exit 0")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "number of parallel analysis workers")
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

	findings, err := lint.RunParallel(lint.DefaultConfig(ld.Module), ld, dirs, *workers)
	if err != nil {
		fatal(err)
	}
	report := lint.NewReport(ld.Module, ld.Root, len(dirs), findings)

	if *writeBaseline != "" {
		if err := lint.WriteBaseline(*writeBaseline, report); err != nil {
			fatal(err)
		}
		if !*quiet {
			fmt.Printf("rfclint: wrote %d accepted findings to %s\n", len(report.Findings), *writeBaseline)
		}
		return
	}

	var stale []lint.BaselineEntry
	if *baselinePath != "" {
		b, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fatal(err)
		}
		stale = b.Apply(report)
	}

	switch {
	case *jsonOut:
		if err := report.Encode(os.Stdout); err != nil {
			fatal(err)
		}
	case *baselinePath != "":
		// Baseline-filtered: print the kept findings (root-relative, as in
		// the JSON report).
		for _, f := range report.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Rule, f.Msg)
		}
	default:
		for _, f := range findings {
			// Report paths relative to the working directory, like go vet.
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil {
				f.Pos.Filename = rel
			}
			fmt.Println(f)
		}
	}
	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "rfclint: stale baseline entry: %s: %s: %s\n", e.File, e.Rule, e.Msg)
	}
	if len(stale) > 0 {
		os.Exit(3)
	}
	if len(report.Findings) > 0 {
		os.Exit(1)
	}
	if !*quiet && !*jsonOut {
		fmt.Printf("rfclint: %d packages clean\n", len(dirs))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfclint:", err)
	os.Exit(2)
}
