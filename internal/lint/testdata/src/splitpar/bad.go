// Package splitpar exercises the split-in-parallel rule: order-dependent
// rng use inside engine worker closures.
package splitpar

import (
	"rfclos/internal/engine"
	"rfclos/internal/rng"
)

// capturedParent draws from a generator captured from the enclosing scope:
// jobs then race for positions in one shared stream.
func capturedParent(parent *rng.Rand) ([]int, error) {
	return engine.Run(8, 4, func(job int) (int, error) {
		return parent.Intn(100), nil //lintwant:split-in-parallel
	})
}

// capturedInShard shows the same capture through RunShard.
func capturedInShard(parent *rng.Rand, sh engine.Shard) ([]int, error) {
	return engine.RunShard(8, 4, sh, func(job int) (int, error) {
		return parent.Intn(100), nil //lintwant:split-in-parallel
	})
}
