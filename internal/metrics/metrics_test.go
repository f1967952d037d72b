package metrics

import (
	"math"
	"testing"
)

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{1, 2, 3, 4, 5} {
		s.Add(v)
	}
	if s.N != 5 || s.Mean() != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary wrong: %+v mean=%v", s, s.Mean())
	}
	if sd := s.StdDev(); math.Abs(sd-math.Sqrt(2.5)) > 1e-12 {
		t.Errorf("stddev = %v, want sqrt(2.5)", sd)
	}
	var empty Summary
	if empty.Mean() != 0 || empty.StdDev() != 0 {
		t.Error("empty summary should yield zeros")
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	for i := 1; i <= 1000; i++ {
		h.Add(i)
	}
	if h.sum.N != 1000 {
		t.Fatalf("N = %d", h.sum.N)
	}
	if math.Abs(h.Mean()-500.5) > 1e-9 {
		t.Errorf("mean = %v", h.Mean())
	}
	// Median of 1..1000 is ~500; bucket upper bound estimate gives 512.
	if q := h.Quantile(0.5); q != 512 {
		t.Errorf("median estimate = %v, want 512", q)
	}
	if q := h.Quantile(1.0); q < 1000 {
		t.Errorf("q100 = %v, want >= 1000", q)
	}
	h.Add(-5) // clamped to zero
	if h.sum.N != 1001 {
		t.Error("negative value not recorded")
	}
}
