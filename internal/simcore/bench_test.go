package simcore_test

import (
	"testing"

	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// BenchmarkEngineCycles measures raw engine speed — simulated cycles per
// wall-clock second on a radix-8 3-level CFT at 0.6 load — and reports it as
// the cycles/sec metric of BENCH_engine.json's engine datapoints.
func BenchmarkEngineCycles(b *testing.B) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	ud := routing.New(c)
	pat := traffic.NewUniform(c.Terminals())
	const warm, measure = 200, 2000
	cfg := simnet.Config{WarmupCycles: warm, MeasureCycles: measure, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		simnet.New(c, ud, pat, cfg).Run(0.6)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*(warm+measure))/b.Elapsed().Seconds(), "cycles/sec")
}
