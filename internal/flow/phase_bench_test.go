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

// The small flowscale networks (8,192 terminals each).
func xgft8k(b *testing.B) Network {
	c, err := topology.NewCFTWithTerminals(16, 4, 8)
	if err != nil {
		b.Fatal(err)
	}
	return NewClos(c, routing.New(c), nil)
}

func rfc8k(b *testing.B) Network {
	c, ud, _, err := core.GenerateRoutable(core.Params{Radix: 16, Levels: 4, Leaves: 1024}, 50, rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	return NewClos(c, ud, nil)
}

func rrn8k(b *testing.B) Network {
	r, err := topology.NewRRN(2048, 12, 4, rng.New(6))
	if err != nil {
		b.Fatal(err)
	}
	n, err := NewRRN(r, 1)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// uniformOn is a phase instance: a uniform matrix at load on one network.
func uniformOn(net func(*testing.B) Network, load float64) func(*testing.B) (Network, []traffic.Demand) {
	return func(b *testing.B) (Network, []traffic.Demand) {
		n := net(b)
		return n, uniformAt(b, n.Terminals(), load)
	}
}

// phaseInstances are the small flowscale networks at loads 0.5, where most
// links can never saturate, and 1, where water-filling re-keys dominate,
// and BenchmarkFlowSolve's 64K-leaf XGFT at load 1.
var phaseInstances = []phaseInstance{
	{"xgft8k-load0.5", uniformOn(xgft8k, 0.5)},
	{"xgft8k-load1", uniformOn(xgft8k, 1)},
	{"rfc8k-load0.5", uniformOn(rfc8k, 0.5)},
	{"rfc8k-load1", uniformOn(rfc8k, 1)},
	{"rrn8k-load0.5", uniformOn(rrn8k, 0.5)},
	{"rrn8k-load1", uniformOn(rrn8k, 1)},
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
