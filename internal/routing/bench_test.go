package routing

import (
	"testing"

	"rfclos/internal/topology"
)

// benchUpDown builds the 4096-leaf XGFT both index tiers are benchmarked
// on (the same shape TestSuccinctSizeBytes measures).
func benchUpDown(b *testing.B) *UpDown {
	b.Helper()
	c, err := topology.NewXGFT([]int{4, 64, 64}, []int{1, 4, 2}, 72)
	if err != nil {
		b.Fatal(err)
	}
	return New(c)
}

// BenchmarkCoverBuild measures UpDown.Rebuild — the streaming compressed
// cover construction — on the 4096-leaf XGFT, and reports the compressed
// cover footprint next to what plain N1-bit bitsets would cost.
func BenchmarkCoverBuild(b *testing.B) {
	u := benchUpDown(b)
	for i := 0; i < b.N; i++ {
		u.Rebuild()
	}
	c := u.Clos()
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
// tier is 1.0 by definition).
func BenchmarkTurnIndexBuild(b *testing.B) {
	u := benchUpDown(b)
	n := float64(u.n1) * float64(u.n1)
	b.Run("dense", func(b *testing.B) {
		var ix TurnIndex
		for i := 0; i < b.N; i++ {
			ix = NewMinTurnIndex(u)
		}
		b.ReportMetric(float64(ix.SizeBytes())/n, "bytes/pair")
	})
	b.Run("succinct", func(b *testing.B) {
		var ix TurnIndex
		for i := 0; i < b.N; i++ {
			ix = NewSuccinctTurnIndex(u)
		}
		b.ReportMetric(float64(ix.SizeBytes())/n, "bytes/pair")
	})
}

// BenchmarkTurnIndexLookup measures MinTurn on both tiers, sweeping src/dst
// so sparse, bitset, and majority row paths are all exercised.
func BenchmarkTurnIndexLookup(b *testing.B) {
	u := benchUpDown(b)
	n := u.n1
	run := func(ix TurnIndex) func(*testing.B) {
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
	b.Run("dense", run(NewMinTurnIndex(u)))
	b.Run("succinct", run(NewSuccinctTurnIndex(u)))
}
