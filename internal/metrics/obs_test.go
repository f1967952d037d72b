package metrics

import (
	"math"
	"testing"
)

func TestMergeObsDedupesAndSorts(t *testing.T) {
	a := []Obs{{Job: 4, V: 4}, {Job: 0, V: 0}}
	b := []Obs{{Job: 2, V: 2}, {Job: 4, V: 4}, {Job: 1, V: 1}}
	got, err := MergeObs(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []Obs{{0, 0}, {1, 1}, {2, 2}, {4, 4}}
	if len(got) != len(want) {
		t.Fatalf("len = %d, want %d (%v)", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSummarizeObsMatchesSequentialOrder pins the byte-compatibility
// contract: re-summing job-ordered observations must reproduce bit-exactly
// the moments of a sequential accumulation, even for values whose sum
// depends on addition order.
func TestSummarizeObsMatchesSequentialOrder(t *testing.T) {
	vals := []float64{1e16, 3.14159, -1e16, 2.71828, 1e-8, 0.5}
	var seq Summary
	for _, v := range vals {
		seq.Add(v)
	}
	// Feed the same values out of order, tagged with their sequential index.
	shuffled := []Obs{{3, vals[3]}, {0, vals[0]}, {5, vals[5]}, {1, vals[1]}, {4, vals[4]}, {2, vals[2]}}
	got := SummarizeObs(shuffled)
	if got.N != seq.N || got.Sum != seq.Sum || got.SumSq != seq.SumSq {
		t.Errorf("SummarizeObs = {N:%d Sum:%v SumSq:%v}, sequential {N:%d Sum:%v SumSq:%v}",
			got.N, got.Sum, got.SumSq, seq.N, seq.Sum, seq.SumSq)
	}
	if math.Float64bits(got.Mean()) != math.Float64bits(seq.Mean()) {
		t.Errorf("Mean() not bit-identical: %x vs %x",
			math.Float64bits(got.Mean()), math.Float64bits(seq.Mean()))
	}
}

func TestJobCollector(t *testing.T) {
	var c JobCollector
	// Expect the full grid, observe only "shard 0" (even jobs).
	xs := []float64{0.2, 0.6}
	for i := 0; i < 4; i++ {
		x := xs[i/2]
		c.Expect(x)
		if i%2 == 0 {
			c.Observe(x, i, float64(i))
		}
	}
	coords := c.Coords()
	if len(coords) != 2 || coords[0] != 0.2 || coords[1] != 0.6 {
		t.Fatalf("Coords() = %v, want [0.2 0.6] in first-Expect order", coords)
	}
	obs, want := c.At(0.2)
	if want != 2 {
		t.Errorf("At(0.2) want = %d, expected 2", want)
	}
	if len(obs) != 1 || obs[0] != (Obs{Job: 0, V: 0}) {
		t.Errorf("At(0.2) obs = %v", obs)
	}
	if obs, want := c.At(99.0); obs != nil || want != 0 {
		t.Errorf("At(unknown) = %v, %d; want nil, 0", obs, want)
	}
}
