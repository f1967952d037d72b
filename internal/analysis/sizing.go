package analysis

import (
	"math"

	"rfclos/internal/core"
	"rfclos/internal/gf"
	"rfclos/internal/topology"
)

// This file holds the per-topology sizing rules the paper applies when
// comparing networks "of the same size": given a target terminal count and
// a diameter (level count), pick each topology's natural parameters.

// cftRadixFor returns the even radix whose l-level CFT terminal count
// 2(R/2)^l is closest to target.
func cftRadixFor(target, levels int) int {
	best, bestDiff := 4, math.MaxFloat64
	for r := 4; r <= 256; r += 2 {
		t := 2 * math.Pow(float64(r)/2, float64(levels))
		diff := math.Abs(t - float64(target))
		if diff < bestDiff {
			best, bestDiff = r, diff
		}
		if t > 4*float64(target) {
			break
		}
	}
	return best
}

// rfcParamsFor returns the smallest even radix (and matching leaf count)
// whose l-level RFC can hold target terminals within the Theorem 4.2
// threshold, mirroring the paper's "RFCs use R=14 where the CFT needs R=20"
// sizing.
func rfcParamsFor(target, levels int) core.Params {
	for r := 4; r <= 256; r += 2 {
		if core.MaxTerminals(r, levels) < target {
			continue
		}
		p := core.ParamsForTerminals(r, levels, target)
		if p.Leaves > core.MaxLeaves(r, levels) {
			continue
		}
		if p.Validate() == nil {
			return p
		}
	}
	return core.Params{}
}

// rrnSpec is a sized random regular network.
type rrnSpec struct {
	N, Degree, TermsPerSwitch int
}

func (s rrnSpec) Radix() int { return s.Degree + s.TermsPerSwitch }

// rrnSpecFor returns the smallest-radix RRN reaching the target terminal
// count at the given diameter, using the paper's rules: ~Δ/D terminals per
// switch and Δ^D >= 2 N ln N.
func rrnSpecFor(target, diameter int) rrnSpec {
	for radix := 4; radix <= 256; radix++ {
		for tps := 1; tps < radix; tps++ {
			deg := radix - tps
			if deg < 3 {
				break
			}
			// Keep terminals per switch near Δ/D as §4.3 prescribes.
			if tps > deg/2 {
				break
			}
			n := (target + tps - 1) / tps
			if n%2 == 1 && deg%2 == 1 {
				n++ // the pairing model needs n*deg even
			}
			if n <= deg {
				continue
			}
			if 2*float64(n)*math.Log(float64(n)) <= math.Pow(float64(deg), float64(diameter)) {
				return rrnSpec{N: n, Degree: deg, TermsPerSwitch: tps}
			}
		}
	}
	return rrnSpec{}
}

// oftOrderFor returns the prime-power order q whose l-level OFT terminal
// count is closest to target, and whether it is within a factor of 2.
func oftOrderFor(target, levels int) (int, bool) {
	bestQ, bestDiff := 0, math.MaxFloat64
	for q := 2; q <= 64; q++ {
		if !gf.IsPrimePower(q) {
			continue
		}
		t := float64(topology.OFTTerminals(q, levels))
		diff := math.Abs(t - float64(target))
		if diff < bestDiff {
			bestQ, bestDiff = q, diff
		}
		if t > 4*float64(target) {
			break
		}
	}
	if bestQ == 0 {
		return 0, false
	}
	t := float64(topology.OFTTerminals(bestQ, levels))
	ok := t >= float64(target)/2 && t <= float64(target)*2
	return bestQ, ok
}
