package leafsetpkg

// histogramByName tallies containers through a map and then ranges over it,
// so the histogram order varies run to run.
func histogramByName(kinds []string) []string {
	m := map[string]int{}
	for _, k := range kinds {
		m[k]++
	}
	out := []string{}
	for k := range m { //lintwant:map-range-order
		out = append(out, k)
	}
	return out
}
