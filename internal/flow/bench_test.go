// Solver benchmark at datacenter scale: a uniform matrix over a 64K-leaf
// XGFT (262,144 terminals, one flow per terminal), resolved and
// water-filled end to end, reported as flows/sec (the flow-solver
// datapoint of BENCH_engine.json). Run with -count N for repeated samples.
package flow_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// flowSolveInstance builds BenchmarkFlowSolve's network and matrix.
func flowSolveInstance(tb testing.TB) (*flow.ClosNetwork, []traffic.Demand) {
	tb.Helper()
	m3 := 65536 / 8
	c, err := topology.NewXGFT([]int{4, 8, m3}, []int{1, 8, 2}, m3)
	if err != nil {
		tb.Fatal(err)
	}
	net := flow.NewClos(c, routing.New(c), nil)
	return net, traffic.UniformMatrix(net.Terminals(), 1, rng.At(1, rng.StringCoord("bench/flow")))
}

func BenchmarkFlowSolve(b *testing.B) {
	net, m := flowSolveInstance(b)

	b.ResetTimer()
	var res *flow.Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = flow.Solve(net, m, flow.Options{Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
	}
	if res.Unroutable != 0 || res.Flows != len(m) {
		b.Fatalf("solve routed %d/%d flows with %d unroutable", res.Flows, len(m), res.Unroutable)
	}
	b.ReportMetric(float64(res.Flows)*float64(b.N)/b.Elapsed().Seconds(), "flows/s")
	b.ReportMetric(float64(res.Rounds), "rounds")
	b.ReportMetric(res.Accepted, "accepted")
}

// TestFlowSolveGolden pins BenchmarkFlowSolve's allocation: a SHA-256 over
// every flow's rate bits, the round count and the saturated-link count,
// captured from the child-probing down-hop selector.
func TestFlowSolveGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("64K-leaf solve")
	}
	net, m := flowSolveInstance(t)
	res, err := flow.Solve(net, m, flow.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	for _, x := range res.Rates {
		put(math.Float64bits(x))
	}
	put(uint64(res.Rounds))
	put(uint64(res.SatLinks))
	const want = "792538da10a25d24dc39b9f2a63a4f7df032042d9050b751ee795bd4fdbb4820"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("solve hash = %s (rounds %d, sat links %d), want %s", got, res.Rounds, res.SatLinks, want)
	}
}
