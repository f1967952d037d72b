package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice by
// linear interpolation between closest ranks (the "type 7" rule of R and
// NumPy): q = 0 is the minimum, q = 1 the maximum, and the median of an
// even-length slice is the mean of its middle pair. It returns NaN for an
// empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// summary is the spread of one metric's samples: the count, the quartiles
// and the 99th percentile, plus the samples themselves when there are few
// enough to print.
type summary struct {
	N       int       `json:"n"`
	Min     float64   `json:"min"`
	Q1      float64   `json:"q1"`
	Median  float64   `json:"median"`
	Q3      float64   `json:"q3"`
	P99     float64   `json:"p99"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples,omitempty"`
}

// maxListedSamples bounds the samples a summary repeats verbatim; latency
// distributions with thousands of requests keep only their quantiles.
const maxListedSamples = 64

// summarize sorts a copy of samples and describes it.
func summarize(samples []float64) summary {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	sum := summary{N: len(s)}
	if len(s) == 0 {
		return sum
	}
	sum.Min, sum.Max = s[0], s[len(s)-1]
	sum.Q1, sum.Median, sum.Q3 = quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
	sum.P99 = quantile(s, 0.99)
	if len(samples) <= maxListedSamples {
		sum.Samples = append([]float64(nil), samples...)
	}
	return sum
}

// median is summarize(samples).Median without the bookkeeping.
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of samples, NaN for none.
func mean(samples []float64) float64 {
	sum := 0.0
	for _, x := range samples {
		sum += x
	}
	return sum / float64(len(samples))
}
