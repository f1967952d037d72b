package rfclos

// One sub-benchmark per registered exhibit (BenchmarkExhibit/<id>), plus
// micro-benchmarks of the core operations. The benchmarks run reduced
// workloads so `go test -bench=.` finishes on a laptop; cmd/rfcpaper runs
// the full versions and EXPERIMENTS.md records paper-vs-measured numbers.

import (
	"testing"

	"rfclos/internal/analysis"
	"rfclos/internal/exhibit"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// benchParams shrinks every exhibit to a laptop-sized run: one rep, a
// 400-cycle window, two loads, uniform traffic and two trials.
var benchParams = ExhibitParams{
	Scale: ScaleSmall, Seed: 1, Trials: 2, Cycles: 400, Reps: 1,
	Loads: []float64{0.4, 0.6}, Patterns: []string{"uniform"},
}

// BenchmarkExhibit runs every registered exhibit serially, plus fig8 on one
// worker per CPU. Serial and parallel runs produce identical reports; only
// wall-clock differs.
func BenchmarkExhibit(b *testing.B) {
	run := func(id string, workers int) func(*testing.B) {
		return func(b *testing.B) {
			p := benchParams
			p.Workers = workers
			for i := 0; i < b.N; i++ {
				rep, err := RunExhibit(id, p)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Rows) == 0 {
					b.Fatal("empty")
				}
			}
		}
	}
	for _, id := range exhibit.IDs() {
		b.Run(id, run(id, 1))
	}
	b.Run("fig8-parallel", run("fig8", 0))
}

// --- micro-benchmarks of the core operations ---

func BenchmarkGenerateRFC648(b *testing.B) {
	p := Params{Radix: 36, Levels: 3, Leaves: 648}
	r := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewRFCUnchecked(p, r.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterRebuild11K(b *testing.B) {
	c, err := topology.NewCFT(36, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ud.Rebuild()
	}
}

func BenchmarkUpDownPathLookup(b *testing.B) {
	c, err := topology.NewCFT(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	r := rng.New(2)
	n1 := c.LevelSize(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := r.Intn(n1), r.Intn(n1)
		if p := ud.Path(src, dst, r); p == nil {
			b.Fatal("no path")
		}
	}
}

func BenchmarkSimulatedCycle1K(b *testing.B) {
	// Cost of one simulated cycle on the scaled 1K-terminal CFT at 60%
	// load, reported as ns per cycle.
	c, err := topology.NewCFT(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	cfg := simnet.Config{WarmupCycles: 100, MeasureCycles: 900, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.New(c, ud, traffic.NewUniform(c.Terminals()), cfg).Run(0.6)
	}
}

func BenchmarkFaultsToDisconnect(b *testing.B) {
	c, err := topology.NewCFT(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	g := c.SwitchGraph()
	r := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysis.FaultsToDisconnect(g, r)
	}
}
