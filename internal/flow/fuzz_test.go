package flow

import (
	"slices"
	"testing"

	"rfclos/internal/traffic"
)

// decodeInstance turns arbitrary bytes into a small water-filling
// instance. Byte 0 sizes the link set (1–16). Each following flow, at most
// 32, reads a demand byte d (rate d/64, so ties are common; 0 means no
// demand), a length byte k, and then up to k%5 link bytes. A repeated link
// is dropped, since a path never revisits a directed link. A flow with no
// demand gets the empty path; a flow with demand and no links is
// unroutable.
func decodeInstance(data []byte) (flatPaths, []traffic.Demand, int) {
	nLinks := 1
	if len(data) > 0 {
		nLinks += int(data[0] % 16)
		data = data[1:]
	}
	p := flatPaths{off: []int32{0}}
	var m []traffic.Demand
	for len(data) >= 2 && len(m) < 32 {
		rate, k := float64(data[0])/64, int(data[1]%5)
		data = data[2:]
		k = min(k, len(data))
		from := len(p.links)
		for _, b := range data[:k] {
			if l := int32(int(b) % nLinks); rate > 0 && !slices.Contains(p.links[from:], l) {
				p.links = append(p.links, l)
			}
		}
		data = data[k:]
		n := int32(len(m))
		m = append(m, traffic.Demand{Src: n, Dst: n, Rate: rate})
		p.flow = append(p.flow, n)
		p.off = append(p.off, int32(len(p.links)))
	}
	return p, m, nLinks
}

// FuzzWaterfill checks the heap water-filler on small decoded instances:
// its allocation must be max-min fair (feasible, and every flow below its
// demand maximal on a saturated link) and must match the scan oracle.
func FuzzWaterfill(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, m, nLinks := decodeInstance(data)
		res := matchOracle(t, "fuzz instance", p, m, nLinks)
		checkMaxMin(t, p, m, nLinks, res.Rates)
	})
}
