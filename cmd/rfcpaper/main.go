// Command rfcpaper regenerates the paper's exhibits: Figures 5-12, Table 3,
// the §5 cost table, a Theorem 4.2 Monte-Carlo validation and the extension
// experiments. The exhibit set, its "all" order and the per-exhibit defaults
// all come from the internal/exhibit registry.
//
// Usage:
//
//	rfcpaper -exhibit fig5            # analytic, instant
//	rfcpaper -exhibit fig8 -scale small
//	rfcpaper -exhibit table3 -trials 100
//	rfcpaper -exhibit all -scale small
//	rfcpaper -list                    # one line per exhibit
//
// -scale small (default) runs radix-16 analogues of the simulation
// scenarios that preserve the paper's comparisons on one machine;
// -scale paper uses the exact radix-36 networks (11K/100K/200K terminals)
// and is slow.
//
// Sharded runs split an exhibit's job grid across machines:
//
//	rfcpaper -exhibit fig8 -shard 0/2 -out parts   # machine A
//	rfcpaper -exhibit fig8 -shard 1/2 -out parts   # machine B
//	rfcmerge parts/*.json                          # byte-identical report
//
// Every shard writes a partial JSON report; rfcmerge unions them into the
// exact bytes an unsharded run prints (see EXPERIMENTS.md "Sharded runs").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rfclos/internal/analysis"
	"rfclos/internal/engine"
	"rfclos/internal/exhibit"
	"rfclos/internal/obs"
)

func main() {
	var (
		ex       = flag.String("exhibit", "all", exhibit.Usage())
		scale    = flag.String("scale", "small", "small | paper (simulation exhibits)")
		seed     = flag.Uint64("seed", 1, "random seed")
		trials   = flag.Int("trials", 0, "trials/repetitions (0 = per-exhibit default)")
		cycles   = flag.Int("cycles", 0, "measured cycles per simulation (0 = default)")
		reps     = flag.Int("reps", 0, "simulation repetitions per point (0 = default)")
		loads    = flag.String("loads", "", "comma-separated offered loads for fig8-10 (default sweep 0.1..1.0)")
		patterns = flag.String("patterns", "", "comma-separated traffic patterns for fig8-10 (default all three)")
		workers  = flag.Int("workers", runtime.NumCPU(), "worker pool size for simulation/Monte-Carlo jobs (results are identical for any value)")
		infSink  = flag.Bool("infsink", false, "model infinite reception bandwidth (see simnet.Config.InfiniteSink)")
		backend  = flag.String("backend", "", "throughput engine for fig8-10: cycle (default) | flow (max-min-fair solver)")
		asCSV    = flag.Bool("csv", false, "emit CSV instead of aligned text")
		asJSON   = flag.Bool("json", false, "emit the versioned JSON report instead of aligned text")
		shardStr = flag.String("shard", "", "run only this slice of each exhibit's job grid, as k/n (requires -out or -json)")
		outDir   = flag.String("out", "", "write per-exhibit JSON reports into this directory instead of stdout")
		list     = flag.Bool("list", false, "list the registered exhibits and exit")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()
	if *list {
		fmt.Print(exhibit.Help())
		return
	}
	shard, err := engine.ParseShard(*shardStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rfcpaper:", err)
		os.Exit(2)
	}
	r := runner{
		params: analysis.Params{
			Scale:        analysis.Scale(*scale),
			Seed:         *seed,
			Trials:       *trials,
			Cycles:       *cycles,
			Reps:         *reps,
			Workers:      *workers,
			InfiniteSink: *infSink,
			Backend:      *backend,
			Shard:        shard,
		},
		asCSV:  *asCSV,
		asJSON: *asJSON,
		outDir: *outDir,
		quiet:  *quiet,
	}
	if shard.Enabled() && *outDir == "" && !*asJSON {
		fmt.Fprintln(os.Stderr, "rfcpaper: -shard produces a partial report; use -out DIR (for rfcmerge) or -json")
		os.Exit(2)
	}
	if *loads != "" {
		for _, f := range strings.Split(*loads, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rfcpaper: bad -loads:", err)
				os.Exit(2)
			}
			r.params.Loads = append(r.params.Loads, v)
		}
	}
	if *patterns != "" {
		r.params.Patterns = strings.Split(*patterns, ",")
	}
	if err := r.run(*ex); err != nil {
		fmt.Fprintln(os.Stderr, "rfcpaper:", err)
		os.Exit(1)
	}
}

type runner struct {
	params analysis.Params
	asCSV  bool
	asJSON bool
	outDir string
	quiet  bool
}

// progress returns a fresh counting/timing progress sink ("[n 1.23s] msg"
// lines on stderr), safe for concurrent use by worker goroutines. Each
// exhibit gets its own counter.
func (r runner) progress() func(string) {
	if r.quiet {
		return nil
	}
	return obs.Progress(func(s string) { fmt.Fprintln(os.Stderr, "  ...", s) })
}

// outPath names an exhibit's JSON file the way WriteReport does.
func (r runner) outPath(id string) string {
	return exhibit.ReportPath(r.outDir, id, r.params.Shard)
}

func (r runner) run(arg string) error {
	exhibits, err := exhibit.Resolve(arg)
	if err != nil {
		return err
	}
	if r.outDir != "" {
		if err := os.MkdirAll(r.outDir, 0o755); err != nil {
			return err
		}
	}
	start := time.Now()
	for _, e := range exhibits {
		p := r.params
		p.Progress = r.progress()
		rep, err := e.Run(p)
		if err != nil {
			return err
		}
		if err := exhibit.WriteReport(rep, r.asCSV, r.asJSON, r.outDir, r.quiet); err != nil {
			return err
		}
	}
	if !r.quiet {
		fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}
