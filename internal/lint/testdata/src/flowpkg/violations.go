package flowpkg

// emitRates flattens the per-flow rate map in map order: the emitted rate
// list differs between runs, which would break byte-stable reports.
func emitRates(rates map[int]float64) []float64 {
	var out []float64
	for _, r := range rates { //lintwant:map-range-order
		out = append(out, r)
	}
	return out
}
