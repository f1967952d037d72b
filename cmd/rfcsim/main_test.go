package main

import (
	"math"
	"strings"
	"testing"
)

// TestInvalidSettingsRejected checks that a negative or NaN offered load,
// and warm-up, cycle, fault or repetition counts the simulation would not
// honour, are refused on both backends before anything is built or solved.
func TestInvalidSettingsRejected(t *testing.T) {
	for _, tc := range []struct {
		load                         float64
		warmup, cycles, faults, reps int
		want                         string
	}{
		{-0.5, 10, 10, 0, 1, "load -0.5 is not"},
		{math.NaN(), 10, 10, 0, 1, "load NaN is not"},
		{0.3, -3, 0, 0, 1, "-warmup -3 is below 1"},
		{0.3, 0, 10, 0, 1, "-warmup 0 is below 1"},
		{0.3, 10, 0, 0, 1, "-cycles 0 is below 1"},
		{0.3, 10, 10, -5, 1, "-faults -5 is below 0"},
		{0.3, 10, 10, 0, 0, "-reps 0 is below 1"},
	} {
		for _, backend := range []string{"cycle", "flow"} {
			err := run("rfc", 8, 3, 16, 3, "uniform", tc.load, tc.warmup, tc.cycles, tc.faults, tc.reps, 1, 1, backend)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("backend %s: err = %v, want %q", backend, err, tc.want)
			}
		}
	}
}
