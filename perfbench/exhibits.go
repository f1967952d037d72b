package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"rfclos/internal/rng"
)

// exhibitWorkload is one rfcpaper exhibit run as a workload.
type exhibitWorkload struct {
	name string
	id   string   // rfcpaper -exhibit value and golden file name
	args []string // flags besides -exhibit, -seed, -workers and -quiet
	jobs int      // grid jobs one run executes
	// instances is how many exhibit seeds a timed window cycles through
	// (see instanceSeeds).
	instances int
}

// goldenSeed is the seed the exhibit goldens were captured at.
const goldenSeed = 7

var exhibitWorkloads = map[string]exhibitWorkload{
	"paper-fig12": {
		name: "paper-fig12", id: "fig12",
		args:      []string{"-scale", "small", "-cycles", "400", "-reps", "2"},
		jobs:      2 * 3 * 11 * 2, // networks × patterns × fault steps × reps
		instances: 1,
	},
	"paper-flowscale": {
		name: "paper-flowscale", id: "flowscale",
		args: []string{"-scale", "small", "-reps", "1", "-loads", "0.5,1.0"},
		jobs: 3 * 2 * 2 * 1, // networks × patterns × loads × reps
		// A run's cost depends on the RFC, RRN and traffic its seed draws,
		// by about ±10% from seed to seed; three instances per window
		// average most of that out.
		instances: 3,
	},
}

// setupSamples is how many times an exhibit run repeats its set-up (a
// bare rfcpaper start, about a millisecond) to report a median set-up time.
const setupSamples = 100

// workers is the -workers value of the timed exhibit runs: every CPU, and
// at least two, so the worker-count check below always compares 1 against
// more than 1.
func workers() int { return max(2, runtime.NumCPU()) }

func (w exhibitWorkload) cmdArgs(seed uint64, extra ...string) []string {
	args := append([]string{"-exhibit", w.id, "-seed", strconv.FormatUint(seed, 10), "-quiet"}, w.args...)
	return append(args, extra...)
}

// instanceSeeds returns the exhibit seeds a window of workload w cycles
// through: the workload seed first, then seeds derived from it.
func (w exhibitWorkload) instanceSeeds(seed uint64) []uint64 {
	seeds := []uint64{seed}
	for k := 1; k < w.instances; k++ {
		seeds = append(seeds, rng.DeriveSeed(seed, rng.StringCoord("perfbench/instance"), uint64(k)))
	}
	return seeds
}

// runExhibit measures one exhibit: set-up is a bare rfcpaper start (its
// exhibit builds happen inside every run and count there); the timed window
// repeats the whole exhibit, cycling through the instance seeds; every
// output is then checked against the reference bytes of its seed.
func runExhibit(ctx context.Context, e env, w exhibitWorkload) (*outcome, error) {
	o := newOutcome()
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		_, u, err := runChild(ctx, e.root, e.prog("rfcpaper"), "-list")
		if err != nil {
			return nil, err
		}
		setups = append(setups, u.wall.Seconds())
	}

	// Runs repeat until every instance has run once, and then for as long as
	// the next one, taking as long as the runs so far did on average, still
	// ends inside the window.
	seeds := w.instanceSeeds(e.seed)
	outs := make([][][]byte, len(seeds))
	walls := make([][]float64, len(seeds))
	var all, cpus, rss []float64
	var busy time.Duration
	for n := 0; n < len(seeds) || busy+busy/time.Duration(n) <= e.seconds; n++ {
		k := n % len(seeds)
		out, u, err := runChild(ctx, e.root, e.prog("rfcpaper"), w.cmdArgs(seeds[k], "-workers", strconv.Itoa(workers()))...)
		if err != nil {
			return nil, err
		}
		busy += u.wall
		outs[k] = append(outs[k], out)
		walls[k] = append(walls[k], u.wall.Seconds())
		all = append(all, u.wall.Seconds()*1e3)
		cpus = append(cpus, u.cpu.Seconds())
		rss = append(rss, float64(u.maxRSS)/(1<<20))
	}

	for k, seed := range seeds {
		ref, what, err := exhibitReference(ctx, e, w, seed)
		if err != nil {
			return nil, err
		}
		checkOutputs(o, fmt.Sprintf("%s seed %d", w.name, seed), outs[k], ref, what)
	}

	// The run time is the mean over instances of each instance's median
	// run, so every instance weighs the same however many runs it got.
	perSeed := make([]float64, len(seeds))
	for k := range seeds {
		perSeed[k] = median(walls[k])
	}
	wall := mean(perSeed)
	o.set("setup_s", "s", median(setups), setups)
	o.set("latency_ms", "ms", wall*1e3, all)
	o.set("ops_per_s", "1/s", float64(w.jobs)/wall, nil)
	o.set("peak_rss_mb", "MiB", median(rss), rss)
	o.summaries["cpu_ms_per_job"] = summarize(scale(cpus, 1e3/float64(w.jobs)))
	return o, nil
}

// checkOutputs counts each run's output as one checked operation, failed
// unless it equals the reference byte for byte.
func checkOutputs(o *outcome, name string, outs [][]byte, ref []byte, what string) {
	for i, out := range outs {
		o.check(bytes.Equal(out, ref), "%s run %d: output differs from %s (%d vs %d bytes)",
			name, i+1, what, len(out), len(ref))
	}
}

// exhibitReference returns the bytes every run of the exhibit at seed must
// print, and what they are. At the golden seed that is the checked-in golden
// file. At any other seed it is the rfcmerge union of a 2-shard run whose
// shards each use one worker: matching it shows the whole run is invariant
// to both the worker count and the shard partition.
func exhibitReference(ctx context.Context, e env, w exhibitWorkload, seed uint64) ([]byte, string, error) {
	if seed == goldenSeed {
		path := filepath.Join(e.root, "internal", "exhibit", "testdata", "golden", w.id+".txt")
		data, err := os.ReadFile(path)
		return data, "golden " + w.id + ".txt", err
	}
	dir, err := os.MkdirTemp(e.work, w.id+"-shards-")
	if err != nil {
		return nil, "", err
	}
	defer os.RemoveAll(dir)
	var wg sync.WaitGroup
	errs := make([]error, 2)
	parts := make([]string, 2)
	for k := 0; k < 2; k++ {
		parts[k] = filepath.Join(dir, fmt.Sprintf("%s.shard%d-of-2.json", w.id, k))
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			_, _, errs[k] = runChild(ctx, e.root, e.prog("rfcpaper"),
				w.cmdArgs(seed, "-workers", "1", "-shard", fmt.Sprintf("%d/2", k), "-out", dir)...)
		}(k)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, "", err
		}
	}
	merged, _, err := runChild(ctx, e.root, e.prog("rfcmerge"), append([]string{"-quiet"}, parts...)...)
	return merged, "the merged 2-shard -workers 1 run", err
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}
