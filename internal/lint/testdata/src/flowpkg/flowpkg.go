// Package flowpkg models the flow-level max-min-fair solver
// (internal/flow) as a deterministic-class fixture: the sanctioned idioms —
// serial water-filling over index-ordered flow slices, keyed saturation
// lookups, commutative folds over link-load maps — must lint clean, while
// the violation a solver like this invites (ranging over a rate map to
// emit results) must still fire.
package flowpkg

// waterFillRound advances every unfrozen flow by the round's fair share in
// flow-index order: serial fixed-order arithmetic, byte-stable at any
// worker count. Nothing to flag.
func waterFillRound(rates []float64, frozen []bool, share float64) {
	for i := range rates {
		if !frozen[i] {
			rates[i] += share
		}
	}
}

// linkLoad folds per-link utilisation into a total: addition commutes, so
// the map range is order-insensitive and clean.
func linkLoad(load map[int32]float64) float64 {
	total := 0.0
	for _, u := range load {
		total += u
	}
	return total
}

// isSaturated is the freeze check: keyed map access is deterministic; only
// ranging is order-sensitive.
func isSaturated(sat map[int32]bool, link int32) bool {
	return sat[link]
}
