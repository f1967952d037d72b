package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestNegativeLoadRejected checks that a negative or NaN offered load is
// refused on both backends before anything is built or solved.
func TestNegativeLoadRejected(t *testing.T) {
	for _, backend := range []string{"cycle", "flow"} {
		for _, load := range []float64{-0.5, math.NaN()} {
			err := run("rfc", 8, 3, 16, 3, "uniform", load, 10, 10, 0, 1, 1, 1, backend)
			if want := fmt.Sprintf("load %g is not", load); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("backend %s load %g: err = %v, want it named", backend, load, err)
			}
		}
	}
}
