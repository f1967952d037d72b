// Package leafsetpkg models the compressed-container routing core
// (internal/routing's LeafSet types) as a deterministic-class fixture: the
// sanctioned idioms — fixed-order container histograms instead of map
// ranges, seeded rng streams for sampling — must lint clean, and the usual
// map-iteration violations must still fire.
package leafsetpkg

import "rfclos/internal/rng"

// reprOrder is the fixed container order the real CoverRepr uses: an array,
// not a map, so the histogram renders identically on every run.
var reprOrder = [...]string{"run", "sparse", "comp", "bits", "full", "empty"}

// histogram counts containers per kind into a fixed-order array.
func histogram(kinds []int) [len(reprOrder)]int {
	var h [len(reprOrder)]int
	for _, k := range kinds {
		h[k]++
	}
	return h
}

// sampleRun picks a leaf uniformly from a run container's [lo, hi) range
// using a coordinate-derived stream, the sanctioned randomness source.
func sampleRun(seed uint64, lo, hi int) int {
	return lo + rng.At(seed, rng.StringCoord("leafsetpkg/sample"), uint64(lo)).Intn(hi-lo)
}
