package analysis

import (
	"fmt"
	"math"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// SimOptions controls the simulation-based experiments (Figures 8-10, 12).
type SimOptions struct {
	// Loads is the offered-load sweep (phits/node/cycle).
	Loads []float64
	// Reps is the number of independent repetitions averaged per point
	// (the paper averages at least 5).
	Reps int
	// Sim carries the Table 2 parameters; zero fields take defaults.
	Sim simnet.Config
	// Patterns restricts the traffic patterns (default: all three).
	Patterns []string
	// Seed drives every random choice. Each simulation job derives its
	// stream from its coordinates — rng.At(Seed, StringCoord(network),
	// StringCoord(pattern), Float64bits(load), rep) — so reports are
	// byte-identical for any Workers setting.
	Seed uint64
	// Workers is the worker-pool size for the (load × rep × pattern ×
	// network) job grid; 0 means one worker per CPU (engine.Workers).
	Workers int
	// Shard restricts execution to the jobs this process owns (see
	// engine.Shard); the zero value runs the whole grid. Sharded runs emit
	// partial aggregates that MergeReports combines byte-identically.
	Shard engine.Shard
	// Progress, when non-nil, receives one line per completed job. It is
	// called from worker goroutines, so it must be safe for concurrent use
	// when Workers != 1 (obs.Progress builds a safe, counting sink).
	Progress func(string)
}

func (o SimOptions) withDefaults() SimOptions {
	if len(o.Loads) == 0 {
		o.Loads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	}
	if o.Reps <= 0 {
		o.Reps = 3
	}
	if len(o.Patterns) == 0 {
		o.Patterns = traffic.Names()
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// netUnderTest couples a named network with its routing state.
type netUnderTest struct {
	name string
	c    *topology.Clos
	ud   *routing.UpDown
}

// simJob is one (network, pattern, load, repetition) simulation point of a
// sweep grid. Jobs are independent: they read the shared topology and
// routing state (immutable during a sweep) and derive all randomness from
// their own coordinates, so the engine may run them in any order on any
// number of workers.
type simJob struct {
	c       *topology.Clos
	ud      *routing.UpDown
	net     string
	pattern string
	load    float64
	rep     int
}

// simPoint is the measured outcome of one simJob.
type simPoint struct{ lat, thr float64 }

// stream returns the job's deterministic RNG, a pure function of the root
// seed and the job coordinates (network name, pattern name, load, rep).
// Using names rather than positional indices keeps a network/pattern's
// streams stable under sweep-grid reshuffles, and makes a stand-alone
// LoadSweep reproduce the corresponding slice of a ScenarioSweep.
func (j simJob) stream(seed uint64) *rng.Rand {
	return rng.At(seed, rng.StringCoord(j.net), rng.StringCoord(j.pattern),
		math.Float64bits(j.load), uint64(j.rep))
}

// run executes the simulation for one job.
func (j simJob) run(opts SimOptions) (simPoint, error) {
	stream := j.stream(opts.Seed)
	pat, err := traffic.New(j.pattern, j.c.Terminals(), stream)
	if err != nil {
		return simPoint{}, err
	}
	cfg := opts.Sim
	cfg.Seed = stream.Uint64()
	res := simnet.New(j.c, j.ud, pat, cfg).Run(j.load)
	if opts.Progress != nil {
		opts.Progress(fmt.Sprintf("%s/%s load=%.2f rep=%d accepted=%.3f latency=%.1f",
			j.net, j.pattern, j.load, j.rep, res.AcceptedLoad, res.AvgLatency))
	}
	return simPoint{lat: res.AvgLatency, thr: res.AcceptedLoad}, nil
}

// runSimJobs fans the owned slice of a job grid out over the worker pool
// and returns per-job results in job order (zero-valued where another shard
// owns the job).
func runSimJobs(jobs []simJob, opts SimOptions) ([]simPoint, error) {
	return engine.RunShard(len(jobs), opts.Workers, opts.Shard, func(i int) (simPoint, error) {
		return jobs[i].run(opts)
	})
}

// loadRepJobs builds the (load × rep) grid for one network and pattern, in
// the deterministic job order loads-major, reps-minor.
func loadRepJobs(n netUnderTest, pattern string, opts SimOptions) []simJob {
	jobs := make([]simJob, 0, len(opts.Loads)*opts.Reps)
	for _, load := range opts.Loads {
		for rep := 0; rep < opts.Reps; rep++ {
			jobs = append(jobs, simJob{c: n.c, ud: n.ud, net: n.name, pattern: pattern, load: load, rep: rep})
		}
	}
	return jobs
}

// LoadSweep measures latency and accepted throughput across offered loads
// for one network and one traffic pattern. It returns one latency series
// and one throughput series, each point averaged over opts.Reps runs with
// distinct coordinate-derived seeds (and distinct pattern instances for the
// fixed patterns). The (load × rep) grid runs on opts.Workers workers; the
// returned series are identical for any worker count.
func LoadSweep(c *topology.Clos, ud *routing.UpDown, netName, patName string, opts SimOptions) (lat, thr metrics.Series, err error) {
	opts = opts.withDefaults()
	jobs := loadRepJobs(netUnderTest{netName, c, ud}, patName, opts)
	points, err := runSimJobs(jobs, opts)
	if err != nil {
		return metrics.Series{}, metrics.Series{}, err
	}
	var latC, thrC metrics.Collector
	for i, p := range points {
		latC.Add(jobs[i].load, p.lat)
		thrC.Add(jobs[i].load, p.thr)
	}
	return latC.Series(netName + "/" + patName + "/latency"),
		thrC.Series(netName + "/" + patName + "/throughput"), nil
}

// buildScenarioNets constructs a scenario's networks with per-network
// coordinate-derived generation streams.
func buildScenarioNets(sc Scenario, seed uint64) ([]netUnderTest, error) {
	cft, err := sc.CFT.Build()
	if err != nil {
		return nil, err
	}
	nets := []netUnderTest{{
		fmt.Sprintf("CFT-%dL-R%d", sc.CFT.Levels, sc.CFT.Radix), cft, routing.New(cft)}}
	rfc, rud, err := buildRoutableRFC(sc.RFC, rng.At(seed, rng.StringCoord("scenario/topology/RFC")))
	if err != nil {
		return nil, err
	}
	nets = append(nets, netUnderTest{
		fmt.Sprintf("RFC-%dL-R%d", sc.RFC.Levels, sc.RFC.Radix), rfc, rud})
	if sc.AltRFC != nil {
		alt, aud, err := buildRoutableRFC(*sc.AltRFC, rng.At(seed, rng.StringCoord("scenario/topology/AltRFC")))
		if err != nil {
			return nil, err
		}
		nets = append(nets, netUnderTest{
			fmt.Sprintf("RFC-%dL-R%d", sc.AltRFC.Levels, sc.AltRFC.Radix), alt, aud})
	}
	return nets, nil
}

// ScenarioSweep runs the full Figure 8/9/10 experiment for one scenario:
// every network in the scenario × every traffic pattern × the load sweep,
// flattened into one (network × pattern × load × rep) job grid on the
// worker pool. Per-job seeds are derived from the job coordinates, so the
// report is byte-identical for any opts.Workers.
func ScenarioSweep(sc Scenario, opts SimOptions) (*Report, error) {
	opts = opts.withDefaults()
	nets, err := buildScenarioNets(sc, opts.Seed)
	if err != nil {
		return nil, err
	}

	var jobs []simJob
	for _, n := range nets {
		for _, pat := range opts.Patterns {
			jobs = append(jobs, loadRepJobs(n, pat, opts)...)
		}
	}
	points, err := runSimJobs(jobs, opts)
	if err != nil {
		return nil, err
	}

	// Merge per-job results into one latency and one throughput collector
	// per (network, pattern) group. Jobs are grid-ordered, so group g owns
	// the contiguous block of len(Loads)*Reps jobs starting at g*per. Every
	// job is Expected (fixing row structure and completeness counts) but
	// only jobs this shard owns contribute observations.
	per := len(opts.Loads) * opts.Reps
	groups := len(nets) * len(opts.Patterns)
	var sset seriesSet
	type groupCols struct{ thr, lat *metrics.JobCollector }
	cols := make([]groupCols, groups)
	for g := 0; g < groups; g++ {
		name := jobs[g*per].net + "/" + jobs[g*per].pattern
		cols[g] = groupCols{thr: sset.col(name + "/throughput"), lat: sset.col(name + "/latency")}
	}
	for i := range jobs {
		g := i / per
		cols[g].thr.Expect(jobs[i].load)
		cols[g].lat.Expect(jobs[i].load)
		if opts.Shard.Owns(i) {
			cols[g].thr.Observe(jobs[i].load, i, points[i].thr)
			cols[g].lat.Observe(jobs[i].load, i, points[i].lat)
		}
	}
	notes := []string{
		fmt.Sprintf("scenario %s: CFT T=%d, RFC T=%d", sc.Name, sc.CFT.Terminals(), sc.RFC.Terminals()),
		"throughput in accepted phits/node/cycle; latency in cycles (generation to tail delivery)",
	}
	return sset.report("Figures 8-10: latency & throughput, scenario "+sc.Name,
		notes, "offered load", "value"), nil
}
