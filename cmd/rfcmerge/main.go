// Command rfcmerge combines the partial JSON reports sharded rfcpaper runs
// write (-shard k/n -out dir) into final reports. Aggregate cells carry
// job-indexed observations, so the merge re-sums them in job order and the
// merged output is byte-identical to an unsharded run — for any partition of
// the shards across machines.
//
// Usage:
//
//	rfcmerge parts/*.json             # aligned text to stdout
//	rfcmerge -csv parts/*.json
//	rfcmerge -json -out final parts/*.json
//	rfcmerge -allow-partial parts/fig8.shard0-of-2.json
//
// Partials of several exhibits may be mixed freely; rfcmerge groups the
// files by their exhibit id and emits the merged reports in the registry's
// "all" order. Missing shards are an error unless -allow-partial is given.
package main

import (
	"flag"
	"fmt"
	"os"

	"rfclos/internal/analysis"
	"rfclos/internal/exhibit"
)

func main() {
	var (
		asCSV        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		asJSON       = flag.Bool("json", false, "emit the versioned JSON report instead of aligned text")
		outDir       = flag.String("out", "", "write per-exhibit JSON reports into this directory instead of stdout")
		allowPartial = flag.Bool("allow-partial", false, "merge even when observations are missing (some shards absent)")
		quiet        = flag.Bool("quiet", false, "suppress per-file notes")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: rfcmerge [flags] report.json...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Args(), *asCSV, *asJSON, *outDir, *allowPartial, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "rfcmerge:", err)
		os.Exit(1)
	}
}

func run(paths []string, asCSV, asJSON bool, outDir string, allowPartial, quiet bool) error {
	// Group the partials by exhibit id, remembering first-seen order for
	// ids the registry does not know (foreign reports still merge fine).
	groups := map[string][]*analysis.Report{}
	var seen []string
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rep, err := analysis.ParseReport(data)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		id := rep.Exhibit
		if _, ok := groups[id]; !ok {
			seen = append(seen, id)
		}
		groups[id] = append(groups[id], rep)
		if !quiet {
			shard := "complete"
			if rep.Shard.Enabled() {
				shard = "shard " + rep.Shard.String()
			}
			fmt.Fprintf(os.Stderr, "read %s: %s (%s)\n", path, id, shard)
		}
	}
	// Registry order first, then unknown ids in input order.
	var order []string
	for _, id := range exhibit.IDs() {
		if _, ok := groups[id]; ok {
			order = append(order, id)
		}
	}
	for _, id := range seen {
		if _, known := exhibit.Lookup(id); !known {
			order = append(order, id)
		}
	}
	if outDir != "" {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
	}
	for _, id := range order {
		merged, err := analysis.MergeReports(groups[id]...)
		if err != nil {
			return err
		}
		if missing := merged.MissingObs(); missing > 0 {
			if !allowPartial {
				return fmt.Errorf("%s: %d observations missing — not all shards present (rerun with every k/n, or -allow-partial)",
					id, missing)
			}
			fmt.Fprintf(os.Stderr, "warning: %s: %d observations missing\n", id, missing)
		}
		if err := exhibit.WriteReport(merged, asCSV, asJSON, outDir, quiet); err != nil {
			return err
		}
	}
	return nil
}
