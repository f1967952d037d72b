package analysis

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"rfclos/internal/engine"
	"rfclos/internal/simnet"
	"rfclos/internal/traffic"
)

// Params carries every run-time setting of the exhibit runners. Each runner
// reads the subset it understands and applies its own defaults where a field
// is zero, so one Params value can drive every exhibit ("rfcpaper -exhibit
// all"). Exhibit shapes (radix, targets, fault steps, ...) are not settings:
// they are explicit arguments of the runners.
type Params struct {
	Scale Scale // small | paper; "" means small
	// Seed drives every random choice; 0 means 1. Each job derives its
	// stream from its coordinates, so reports are byte-identical for any
	// Workers value and any Shard partition.
	Seed uint64
	// Trials overrides the trials default of thm42, fig11 and table3
	// (Thm42Defaults, Fig11Defaults, Table3Defaults) when > 0.
	Trials int
	// Cycles overrides the measurement window of the simulations when > 0;
	// the warm-up becomes Cycles/4.
	Cycles int
	// Reps is the per-point repetition count of the sweeps (0 = the
	// runner's default, in its *Defaults value).
	Reps int
	// Workers sizes the worker pools; 0 means one per CPU. Reports are
	// byte-identical for any value.
	Workers int
	// Loads and Patterns override the sweep grids of the runners that read
	// them (defaults in the runner's *Defaults value).
	Loads    []float64
	Patterns []string
	// InfiniteSink models infinite reception bandwidth (the scenario
	// sweeps only).
	InfiniteSink bool
	// Backend selects the throughput engine of the scenario sweeps:
	// "" or "cycle" runs the cycle-accurate simulator, "flow" the
	// flow-level max-min-fair solver. Other exhibits ignore it.
	Backend string
	// Progress, when non-nil, receives one line per completed job of the
	// grid runners. It is called from worker goroutines, so it must be
	// safe for concurrent use when Workers != 1 (obs.Progress builds a
	// safe, counting sink).
	Progress func(string)
	// Shard restricts the job grids to the slice this process owns; the
	// zero value runs everything. Partial reports merge byte-identically
	// (see engine.Shard and MergeReports).
	Shard engine.Shard
}

// Stamp renders every field of p except Workers, Progress and Shard, the
// ones a report does not depend on, in one canonical line.
func (p Params) Stamp() string {
	loads := make([]string, len(p.Loads))
	for i, v := range p.Loads {
		loads[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return fmt.Sprintf("scale=%s seed=%d trials=%d cycles=%d reps=%d loads=[%s] patterns=%v infinite-sink=%t backend=%s",
		p.Scale, p.Seed, p.Trials, p.Cycles, p.Reps, strings.Join(loads, " "), p.Patterns, p.InfiniteSink, p.Backend)
}

// Each runner's count and grid defaults: the runner fills its Params' zero
// fields from its value, and the exhibit registry's help renders the same.
var (
	Thm42Defaults       = Params{Trials: 100} // generations per radix row
	Fig11Defaults       = Params{Trials: 5}   // removal orders per point
	Table3Defaults      = Params{Trials: 100} // removal orders per cell, as in the paper
	ScenarioDefaults    = Params{Scale: ScaleSmall, Reps: 3, Loads: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}, Patterns: traffic.Names()}
	FlowScaleDefaults   = Params{Scale: ScaleSmall, Reps: 3, Loads: ScenarioDefaults.Loads, Patterns: []string{"uniform", "storm"}}
	JellyfishDefaults   = Params{Scale: ScaleSmall, Reps: 2, Loads: []float64{0.3, 0.6, 0.9, 1.0}}
	Fig12Defaults       = Params{Scale: ScaleSmall, Reps: 2}
	RRNFaultsDefaults   = Params{Scale: ScaleSmall, Reps: 2}
	AblationDefaults    = Params{Scale: ScaleSmall, Reps: 2}
	AdversarialDefaults = Params{Scale: ScaleSmall, Reps: 2}
	TablesDefaults      = Params{Scale: ScaleSmall}
)

// WithDefaults fills p's empty Scale and unset count and grid fields from d.
func (p Params) WithDefaults(d Params) Params {
	p.Scale = cmp.Or(p.Scale, d.Scale)
	p.Trials = cmp.Or(max(p.Trials, 0), d.Trials)
	p.Reps = cmp.Or(max(p.Reps, 0), d.Reps)
	if len(p.Loads) == 0 {
		p.Loads = d.Loads
	}
	if len(p.Patterns) == 0 {
		p.Patterns = d.Patterns
	}
	return p
}

func (p Params) seed() uint64 {
	if p.Seed == 0 {
		return 1
	}
	return p.Seed
}

// sim returns the Table 2 parameters with the Cycles override applied;
// zero fields take simnet's defaults.
func (p Params) sim() simnet.Config {
	var c simnet.Config
	if p.Cycles > 0 {
		c.MeasureCycles = p.Cycles
		c.WarmupCycles = p.Cycles / 4
	}
	return c
}
