// Package csrpkg models the CSR level store (internal/topology's csrLevel
// + mutation overlay) as a deterministic-class fixture: the sanctioned
// idioms — counting-sort sealing over flat pair buffers, keyed overlay
// lookups, order-insensitive overlay folds — must lint clean, while the
// violation a store like this invites (ranging over the overlay map to
// export) must still fire.
package csrpkg

// sealLevel is the emitter's counting-sort seal: two ordered passes over
// the interleaved (a, b) pair buffer, so the sealed neighbour order depends
// only on emission order. Nothing to flag.
func sealLevel(ab []int32, lo, n int) (offsets, neigh []int32) {
	offsets = make([]int32, n+1)
	for i := 0; i < len(ab); i += 2 {
		offsets[ab[i]-int32(lo)+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	neigh = make([]int32, len(ab)/2)
	next := append([]int32(nil), offsets[:n]...)
	for i := 0; i < len(ab); i += 2 {
		s := ab[i] - int32(lo)
		neigh[next[s]] = ab[i+1]
		next[s]++
	}
	return offsets, neigh
}

// rowFor is the read path: a keyed overlay lookup shadowing the CSR row.
// Keyed map access is deterministic; only ranging is order-sensitive.
func rowFor(ovl map[int32][]int32, offsets, neigh []int32, s int32) []int32 {
	if row, ok := ovl[s]; ok {
		return row
	}
	return neigh[offsets[s]:offsets[s+1]]
}

// overlayWires folds the overlay into a wire count: addition commutes, so
// the map range is order-insensitive and clean.
func overlayWires(ovl map[int32][]int32) int {
	n := 0
	for _, row := range ovl {
		n += len(row)
	}
	return n
}
