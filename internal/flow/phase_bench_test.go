package flow

import (
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// phaseInstance is one network and scaled matrix of BenchmarkSolvePhases,
// built only when its sub-benchmark runs.
type phaseInstance struct {
	name  string
	build func(b *testing.B) (Network, []traffic.Demand)
}

// uniformAt is a uniform matrix over t terminals scaled to load.
func uniformAt(b *testing.B, t int, load float64) []traffic.Demand {
	m, err := traffic.NewMatrix("uniform", t, rng.New(3))
	if err != nil {
		b.Fatal(err)
	}
	return traffic.ScaleMatrix(m, load)
}

// phaseInstances are the small flowscale networks (8,192 terminals each)
// at load 0.5, where most links can never saturate, and BenchmarkFlowSolve's
// 64K-leaf XGFT at load 1.
var phaseInstances = []phaseInstance{
	{"xgft8k-load0.5", func(b *testing.B) (Network, []traffic.Demand) {
		c, err := topology.NewCFTWithTerminals(16, 4, 8)
		if err != nil {
			b.Fatal(err)
		}
		return NewClos(c, routing.New(c), nil), uniformAt(b, c.Terminals(), 0.5)
	}},
	{"xgft8k-load1", func(b *testing.B) (Network, []traffic.Demand) {
		c, err := topology.NewCFTWithTerminals(16, 4, 8)
		if err != nil {
			b.Fatal(err)
		}
		return NewClos(c, routing.New(c), nil), uniformAt(b, c.Terminals(), 1)
	}},
	{"rfc8k-load0.5", func(b *testing.B) (Network, []traffic.Demand) {
		c, ud, _, err := core.GenerateRoutable(core.Params{Radix: 16, Levels: 4, Leaves: 1024}, 50, rng.New(5))
		if err != nil {
			b.Fatal(err)
		}
		return NewClos(c, ud, nil), uniformAt(b, c.Terminals(), 0.5)
	}},
	{"rrn8k-load0.5", func(b *testing.B) (Network, []traffic.Demand) {
		r, err := topology.NewRRN(2048, 12, 4, rng.New(6))
		if err != nil {
			b.Fatal(err)
		}
		n, err := NewRRN(r, 1)
		if err != nil {
			b.Fatal(err)
		}
		return n, uniformAt(b, r.Terminals(), 0.5)
	}},
	{"xgft64k-load1", func(b *testing.B) (Network, []traffic.Demand) {
		m3 := 65536 / 8
		c, err := topology.NewXGFT([]int{4, 8, m3}, []int{1, 8, 2}, m3)
		if err != nil {
			b.Fatal(err)
		}
		return NewClos(c, routing.New(c), nil),
			traffic.UniformMatrix(c.Terminals(), 1, rng.At(1, rng.StringCoord("bench/flow")))
	}},
}

// BenchmarkSolvePhases times Solve's two phases apart, on one worker:
// path resolution (resolvePaths) and water-filling (waterfill).
func BenchmarkSolvePhases(b *testing.B) {
	for _, in := range phaseInstances {
		b.Run(in.name, func(b *testing.B) {
			net, m := in.build(b)
			opts := Options{Seed: 7, Workers: 1}
			b.Run("resolve", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := resolvePaths(net, m, opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			p, err := resolvePaths(net, m, opts)
			if err != nil {
				b.Fatal(err)
			}
			b.Run("waterfill", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					waterfill(p, m, net.NumLinks())
				}
			})
		})
	}
}
