// Wiring benchmark for the CSR level store: builds large XGFTs through the
// level emitter and reports the sealed store's footprint next to the
// pre-refactor arena cost model ([][]int32 up/down lists: 8 bytes of int32
// per wire across the two directions plus two 24-byte slice headers per
// switch), at 64K and 512K leaves (the topology-build datapoint of
// BENCH_engine.json).
package topology_test

import (
	"fmt"
	"testing"

	"rfclos/internal/topology"
)

func BenchmarkTopologyBuild(b *testing.B) {
	for _, leaves := range []int{65536, 524288} {
		// N1 = m2*m3 with this shape; radix must cover the top switches'
		// down-degree m3. Same family as the service layer's million-switch
		// smoke (524288 leaves there too).
		m3 := leaves / 8
		m := []int{4, 8, m3}
		w := []int{1, 8, 2}
		b.Run(fmt.Sprintf("leaves=%d", leaves), func(b *testing.B) {
			var c *topology.Clos
			for i := 0; i < b.N; i++ {
				var err error
				c, err = topology.NewXGFT(m, w, m3)
				if err != nil {
					b.Fatal(err)
				}
			}
			if n := c.LevelSize(1); n != leaves {
				b.Fatalf("built %d leaves, want %d", n, leaves)
			}
			csr := int64(c.StoreBytes())
			arena := int64(c.Wires())*8 + int64(c.NumSwitches())*48
			b.ReportMetric(float64(csr), "csr-bytes")
			b.ReportMetric(float64(arena), "arena-bytes")
			b.ReportMetric(float64(c.Wires()), "wires")
		})
	}
}

// BenchmarkExportEdges measures streaming the full link set, sealed
// (CSR-direct fast path) vs after one mutation (overlay fallback). The
// sealed 64K-leaf rate is the export-edges datapoint of BENCH_engine.json.
func BenchmarkExportEdges(b *testing.B) {
	m3 := 65536 / 8
	c, err := topology.NewXGFT([]int{4, 8, m3}, []int{1, 8, 2}, m3)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, c *topology.Clos) {
		count := 0
		for i := 0; i < b.N; i++ {
			count = 0
			for range c.EdgeSeq() {
				count++
			}
		}
		if count != c.Wires() {
			b.Fatalf("streamed %d links, want %d", count, c.Wires())
		}
		b.ReportMetric(float64(count)*float64(b.N)/b.Elapsed().Seconds(), "links/s")
	}
	b.Run("sealed", func(b *testing.B) { run(b, c) })
	b.Run("overlay", func(b *testing.B) {
		cp := c.Clone()
		l := cp.Links()[0]
		cp.AddLink(l.A, l.B)
		cp.RemoveLink(l.A, l.B)
		run(b, cp)
	})
}
