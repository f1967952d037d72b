package splitpar

import (
	"rfclos/internal/engine"
	"rfclos/internal/rng"
)

// coordinateSeeded is the sanctioned pattern: each job derives its own
// stream from the root seed and its coordinates, so results are identical
// for any worker count.
func coordinateSeeded(seed uint64) ([]int, error) {
	return engine.Run(8, 4, func(job int) (int, error) {
		r := rng.At(seed, rng.StringCoord("splitpar/good"), uint64(job))
		return r.Intn(100), nil
	})
}

// ownStream draws only from the stream the job body is handed.
func ownStream(seed uint64) ([]int, error) {
	return eachJob(seed, func(job int, r *rng.Rand) int {
		return r.Intn(100)
	})
}
