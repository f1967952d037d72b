package csrpkg

// exportOverlay flattens the overlay in map order: the emitted link list
// differs between runs, which would break byte-stable exports.
func exportOverlay(ovl map[int32][]int32) [][2]int32 {
	var out [][2]int32
	for s, row := range ovl { //lintwant:map-range-order
		for _, b := range row {
			out = append(out, [2]int32{s, b})
		}
	}
	return out
}
