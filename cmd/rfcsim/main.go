// Command rfcsim runs one virtual cut-through simulation point: a topology,
// a traffic pattern, an offered load and optionally link faults.
//
// Usage examples:
//
//	rfcsim -topo rfc -radix 16 -levels 3 -leaves 128 -pattern uniform -load 0.7
//	rfcsim -topo cft -radix 16 -levels 3 -pattern random-pairing -load 1.0 -faults 200
//	rfcsim -topo rfc -radix 16 -levels 3 -pattern uniform -load 0.9 -reps 8 -workers 4
//	rfcsim -topo rfc -radix 36 -levels 3 -leaves 6480 -backend flow -pattern hotspot -load 1.0
//
// With -reps > 1 the point is repeated with independent repetition streams
// on a worker pool and the summary reports mean ± stddev; the numbers are
// identical for any -workers value.
//
// -backend flow swaps the cycle-accurate simulator for the flow-level
// max-min-fair solver (internal/flow): exact per-flow rates at scales the
// packet simulation cannot reach, at the price of abstracting away latency.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"

	"rfclos"
	"rfclos/internal/analysis"
	"rfclos/internal/engine"
	"rfclos/internal/flow"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/traffic"
)

func main() {
	var (
		topo    = flag.String("topo", "rfc", "topology: rfc | cft | oft")
		radix   = flag.Int("radix", 16, "switch radix (rfc, cft)")
		levels  = flag.Int("levels", 3, "levels")
		leaves  = flag.Int("leaves", 0, "leaf switches N1 (rfc; 0 = sized to the CFT of equal radix)")
		q       = flag.Int("q", 3, "projective plane order (oft)")
		pattern = flag.String("pattern", "uniform", "traffic: uniform | random-pairing | fixed-random (backend=flow also accepts the matrix names: shift, hotspot, incast, elephant-mice, storm)")
		load    = flag.Float64("load", 0.5, "offered load in phits/node/cycle")
		warmup  = flag.Int("warmup", 2000, "warm-up cycles")
		cycles  = flag.Int("cycles", 10000, "measured cycles")
		faults  = flag.Int("faults", 0, "random links to remove before simulating")
		reps    = flag.Int("reps", 1, "independent repetitions of the point (mean ± stddev when > 1)")
		workers = flag.Int("workers", runtime.NumCPU(), "worker pool size for repetitions (results identical for any value)")
		seed    = flag.Uint64("seed", 1, "random seed")
		backend = flag.String("backend", "cycle", "throughput engine: cycle (packet simulation) | flow (max-min-fair rates)")
	)
	flag.Parse()
	if err := run(*topo, *radix, *levels, *leaves, *q, *pattern, *load,
		*warmup, *cycles, *faults, *reps, *workers, *seed, *backend); err != nil {
		fmt.Fprintln(os.Stderr, "rfcsim:", err)
		os.Exit(1)
	}
}

func run(topo string, radix, levels, leaves, q int, pattern string, load float64,
	warmup, cycles, faults, reps, workers int, seed uint64, backend string) error {
	if !(load >= 0) {
		return fmt.Errorf("load %g is not a number >= 0", load)
	}
	if seed == 0 {
		seed = 1
	}
	if reps <= 0 {
		reps = 1
	}
	var (
		c      *rfclos.Clos
		router *rfclos.Router
		err    error
	)
	switch topo {
	case "rfc":
		if leaves == 0 {
			cft, err := rfclos.NewCFT(radix, levels)
			if err != nil {
				return err
			}
			leaves = cft.LevelSize(1)
		}
		c, router, err = rfclos.NewRFC(rfclos.Params{Radix: radix, Levels: levels, Leaves: leaves}, seed)
		if err != nil {
			return err
		}
	case "cft":
		c, err = rfclos.NewCFT(radix, levels)
		if err != nil {
			return err
		}
		router = rfclos.NewRouter(c)
	case "oft":
		c, err = rfclos.NewOFT(q, levels)
		if err != nil {
			return err
		}
		router = rfclos.NewRouter(c)
	default:
		return fmt.Errorf("unknown topology %q", topo)
	}

	if faults > 0 {
		analysis.RemoveRandomLinks(c, faults, rng.At(seed, rng.StringCoord("rfcsim/faults")))
		router.Rebuild()
		fmt.Printf("# removed %d links; up/down routable: %v\n", faults, router.Routable())
	}

	if backend == "flow" {
		return runFlow(c, router, pattern, load, reps, workers, seed)
	}
	if backend != "cycle" {
		return fmt.Errorf("unknown backend %q (cycle|flow)", backend)
	}

	fmt.Printf("# %v\n# pattern=%s load=%.3f warmup=%d cycles=%d reps=%d\n",
		c, pattern, load, warmup, cycles, reps)
	// Each repetition draws its traffic pattern and simulator seed from a
	// stream derived from (seed, "rfcsim/run", rep), so the outcome is a
	// pure function of the flags, independent of the worker count.
	results, err := engine.Run(reps, workers, func(rep int) (rfclos.SimResult, error) {
		stream := rng.At(seed, rng.StringCoord("rfcsim/run"), uint64(rep))
		pat, err := traffic.New(pattern, c.Terminals(), stream)
		if err != nil {
			return rfclos.SimResult{}, err
		}
		cfg := rfclos.DefaultSimConfig()
		cfg.WarmupCycles = warmup
		cfg.MeasureCycles = cycles
		cfg.Seed = stream.Uint64()
		return rfclos.Simulate(c, router, pat, load, cfg), nil
	})
	if err != nil {
		return err
	}

	if reps == 1 {
		res := results[0]
		fmt.Printf("accepted   %.4f phits/node/cycle\n", res.AcceptedLoad)
		fmt.Printf("latency    avg %.1f  p50 %.0f  p95 %.0f  p99 %.0f  max %.0f cycles\n",
			res.AvgLatency, res.P50Latency, res.P95Latency, res.P99Latency, res.MaxLatency)
		fmt.Printf("packets    generated %d  delivered %d  dropped-at-source %d  unroutable %d\n",
			res.Generated, res.Delivered, res.DroppedAtSource, res.UnroutableDrops)
		return nil
	}
	var acc, lat, p99 metrics.Summary
	maxLat := 0.0
	for _, res := range results {
		acc.Add(res.AcceptedLoad)
		lat.Add(res.AvgLatency)
		p99.Add(res.P99Latency)
		maxLat = math.Max(maxLat, res.MaxLatency)
	}
	fmt.Printf("accepted   %.4f ± %.4f phits/node/cycle\n", acc.Mean(), acc.StdDev())
	fmt.Printf("latency    avg %.1f ± %.1f  p99 %.0f ± %.0f  max %.0f cycles\n",
		lat.Mean(), lat.StdDev(), p99.Mean(), p99.StdDev(), maxLat)
	return nil
}

// runFlow solves the point on the flow-level max-min-fair backend: the
// pattern becomes a demand matrix scaled by the offered load, and each
// repetition draws matrix and paths from its own (seed, "rfcsim/flow", rep)
// stream. Warm-up and cycle counts do not apply.
func runFlow(c *rfclos.Clos, router *rfclos.Router, pattern string, load float64,
	reps, workers int, seed uint64) error {
	net := flow.NewClos(c, router, nil)
	fmt.Printf("# %v\n# backend=flow pattern=%s load=%.3f reps=%d\n", c, pattern, load, reps)
	var acc, min, jain metrics.Summary
	for rep := 0; rep < reps; rep++ {
		stream := rng.At(seed, rng.StringCoord("rfcsim/flow"), uint64(rep))
		m, err := traffic.NewMatrix(pattern, c.Terminals(), stream)
		if err != nil {
			return err
		}
		m = traffic.ScaleMatrix(m, load)
		res, err := flow.Solve(net, m, flow.Options{Seed: stream.Uint64(), Workers: workers})
		if err != nil {
			return err
		}
		if reps == 1 {
			fmt.Printf("accepted   %.4f per terminal (demand %.4f)\n", res.Accepted, res.Demand/float64(c.Terminals()))
			fmt.Printf("rates      min %.4f  mean %.4f  max %.4f  jain %.4f\n",
				res.MinRate, res.MeanRate, res.MaxRate, res.Jain)
			fmt.Printf("flows      %d in the matrix  %d unroutable  %d rounds  %d saturated links\n",
				res.Flows, res.Unroutable, res.Rounds, res.SatLinks)
			return nil
		}
		acc.Add(res.Accepted)
		min.Add(res.MinRate)
		jain.Add(res.Jain)
	}
	fmt.Printf("accepted   %.4f ± %.4f per terminal\n", acc.Mean(), acc.StdDev())
	fmt.Printf("rates      min %.4f ± %.4f  jain %.4f ± %.4f\n",
		min.Mean(), min.StdDev(), jain.Mean(), jain.StdDev())
	return nil
}
