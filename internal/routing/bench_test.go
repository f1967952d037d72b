package routing_test

import (
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// benchUpDown builds the 4096-leaf XGFT both index tiers are benchmarked
// on (the same shape TestSuccinctSizeBytes measures).
func benchUpDown(b *testing.B) (*topology.Clos, *routing.UpDown) {
	b.Helper()
	c, err := topology.NewXGFT([]int{4, 64, 64}, []int{1, 4, 2}, 72)
	if err != nil {
		b.Fatal(err)
	}
	return c, routing.New(c)
}

// BenchmarkCoverBuild measures UpDown.Rebuild — the streaming compressed
// cover construction — on the 4096-leaf XGFT, and reports the compressed
// cover footprint next to what plain N1-bit bitsets would cost.
func BenchmarkCoverBuild(b *testing.B) {
	c, u := benchUpDown(b)
	for i := 0; i < b.N; i++ {
		u.Rebuild()
	}
	l := c.Levels()
	words := (c.LevelSize(1) + 63) / 64
	sets := 0
	for r := 0; r < l; r++ {
		for lev := 1; lev <= l-r; lev++ {
			sets += c.LevelSize(lev)
		}
	}
	b.ReportMetric(float64(u.CoverBytes()), "cover-bytes")
	b.ReportMetric(float64(sets*words*8), "plain-bytes")
}

// BenchmarkTurnIndexBuild measures index construction for both tiers and
// reports the encoding density as bytes per ordered leaf pair (the dense
// tier is 1.0 by definition). Besides the 4096-leaf XGFT, the succinct
// tier is timed on the 65,536-leaf XGFT rfcd's query benchmark serves,
// whose covers are a few runs each, and on an 8,192-leaf radix-24 RFC,
// whose sparse and bitset covers yield many short runs.
func BenchmarkTurnIndexBuild(b *testing.B) {
	perPair := func(b *testing.B, ix routing.TurnIndex) {
		n := float64(ix.Leaves())
		b.ReportMetric(float64(ix.SizeBytes())/(n*n), "bytes/pair")
	}
	succinct := func(u *routing.UpDown) func(*testing.B) {
		return func(b *testing.B) {
			b.ResetTimer()
			var ix routing.TurnIndex
			for i := 0; i < b.N; i++ {
				ix = routing.NewSuccinctTurnIndex(u)
			}
			perPair(b, ix)
		}
	}
	_, u := benchUpDown(b)
	b.Run("dense", func(b *testing.B) {
		var ix routing.TurnIndex
		for i := 0; i < b.N; i++ {
			ix = routing.NewMinTurnIndex(u)
		}
		perPair(b, ix)
	})
	b.Run("succinct", succinct(u))
	b.Run("succinct-xgft-64K", func(b *testing.B) {
		_, u := xgft64K(b)
		succinct(u)(b)
	})
	b.Run("succinct-rfc", func(b *testing.B) {
		c, err := core.Generate(core.Params{Radix: 24, Levels: 3, Leaves: 8192}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		succinct(routing.New(c))(b)
	})
}

// BenchmarkTurnIndexLookup measures MinTurn on both tiers, sweeping src/dst
// so sparse, bitset, and majority row paths are all exercised.
func BenchmarkTurnIndexLookup(b *testing.B) {
	c, u := benchUpDown(b)
	n := c.LevelSize(1)
	run := func(ix routing.TurnIndex) func(*testing.B) {
		return func(b *testing.B) {
			sink := 0
			for i := 0; i < b.N; i++ {
				src := (i * 31) % n
				dst := (i*17 + i/n) % n
				sink += ix.MinTurn(src, dst)
			}
			if sink == -1<<62 {
				b.Fatal("impossible")
			}
		}
	}
	b.Run("dense", run(routing.NewMinTurnIndex(u)))
	b.Run("succinct", run(routing.NewSuccinctTurnIndex(u)))
}

// BenchmarkPathAt measures route materialisation over top-turn pairs — the
// pairs whose down hops start at a root — on the 65,536-leaf XGFT, whose
// 16 roots have 8,192 children each, and on the 648-leaf RFC.
func BenchmarkPathAt(b *testing.B) {
	for _, tc := range []struct {
		name  string
		build func(testing.TB) (*topology.Clos, *routing.UpDown)
	}{
		{"xgft-64K", xgft64K},
		{"rfc-648", rfc648},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c, u := tc.build(b)
			n1, top := c.LevelSize(1), c.Levels()-1
			var pairs [][2]int
			for r := rng.New(3); len(pairs) < 1024; {
				if src, dst := r.Intn(n1), r.Intn(n1); u.MinTurn(src, dst) == top {
					pairs = append(pairs, [2]int{src, dst})
				}
			}
			r := rng.New(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				if u.PathAt(p[0], p[1], top, r) == nil {
					b.Fatal("unroutable top-turn pair")
				}
			}
		})
	}
}
