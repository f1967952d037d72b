// Package metrics provides the latency and throughput accounting used by
// the network simulator and the experiment harness: streaming summaries,
// logarithmic latency histograms with quantile estimates, and job-indexed
// multi-run aggregation (obs.go).
package metrics

import "math"

// Summary accumulates a stream of float64 observations.
type Summary struct {
	N        int
	Sum      float64
	SumSq    float64
	Min, Max float64
}

// Add records one observation.
func (s *Summary) Add(v float64) {
	if s.N == 0 || v < s.Min {
		s.Min = v
	}
	if s.N == 0 || v > s.Max {
		s.Max = v
	}
	s.N++
	s.Sum += v
	s.SumSq += v * v
}

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// StdDev returns the sample standard deviation (0 for fewer than 2 points).
func (s *Summary) StdDev() float64 {
	if s.N < 2 {
		return 0
	}
	mean := s.Mean()
	v := (s.SumSq - float64(s.N)*mean*mean) / float64(s.N-1)
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Histogram is a logarithmic-bucket histogram for positive integer latency
// values (cycles). Bucket b holds values in [2^b, 2^(b+1)); values of 0 go
// to bucket 0 alongside 1.
type Histogram struct {
	buckets [40]int64
	sum     Summary
}

// Add records a latency observation in cycles.
func (h *Histogram) Add(cycles int) {
	if cycles < 0 {
		cycles = 0
	}
	h.sum.Add(float64(cycles))
	b := 0
	for v := cycles; v > 1; v >>= 1 {
		b++
	}
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
}

// Mean returns the mean latency.
func (h *Histogram) Mean() float64 { return h.sum.Mean() }

// Max returns the largest recorded latency.
func (h *Histogram) Max() float64 { return h.sum.Max }

// Quantile returns an upper-bound estimate of quantile q (0 < q <= 1) from
// the bucket boundaries.
func (h *Histogram) Quantile(q float64) float64 {
	if h.sum.N == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.sum.N)))
	var acc int64
	for b, c := range h.buckets {
		acc += c
		if acc >= target {
			return float64(int64(1) << uint(b+1)) // bucket upper bound
		}
	}
	return h.sum.Max
}
