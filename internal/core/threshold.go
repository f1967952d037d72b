package core

import "math"

// This file implements the Theorem 4.2 threshold: with Δ = R/2 and
//
//	Δ = (N_l (ln C(N_1,2) + x))^(1/(2(l-1)))
//
// the probability that every pair of leaves shares a common ancestor (and
// hence that up/down routing exists) tends to exp(-exp(-x)). The paper
// simplifies the x = 0 threshold to R = 2 (N_1 ln N_1)^(1/(2(l-1))) using
// N_l ln C(N_1,2) ≈ N_1 (ln N_1 - ln2/2) with N_l = N_1/2.

// ThresholdRadix returns the paper's simplified sharp threshold radix
// 2 (N1 ln N1)^(1/(2(l-1))) for an l-level RFC with N1 leaf switches.
func ThresholdRadix(n1, levels int) float64 {
	if n1 < 2 {
		return 0
	}
	d := 2 * float64(levels-1)
	return 2 * math.Pow(float64(n1)*math.Log(float64(n1)), 1/d)
}

// XParam inverts Theorem 4.2: it returns the offset x implied by using
// radix R on an l-level RFC with N1 leaves, i.e. x = Δ^{2(l-1)}/N_l −
// ln C(N1,2). Positive x means the network sits above the threshold
// (routability probability near 1), negative below.
func XParam(radix, n1, levels int) float64 {
	delta := float64(radix) / 2
	nl := float64(n1) / 2
	return math.Pow(delta, 2*float64(levels-1))/nl - lnBinom2(n1)
}

// SuccessProbability returns the Theorem 4.2 limit probability
// exp(-exp(-x)) that a generated RFC has up/down routing.
func SuccessProbability(x float64) float64 {
	return math.Exp(-math.Exp(-x))
}

// MaxLeaves returns the largest even N1 such that the simplified threshold
// holds, i.e. N1 ln N1 <= (R/2)^{2(l-1)}. This is the maximum size at which
// an l-level radix-R RFC is realizable with up/down routing with
// non-vanishing probability (§4.2).
func MaxLeaves(radix, levels int) int {
	budget := math.Pow(float64(radix)/2, 2*float64(levels-1))
	lo, hi := 2, 1<<40
	for lo < hi {
		mid := (lo + hi + 1) / 2
		v := float64(mid) * math.Log(float64(mid))
		if v <= budget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if lo%2 != 0 {
		lo--
	}
	if lo < 2 {
		lo = 2
	}
	return lo
}

// MaxTerminals returns the terminal count of the largest realizable
// l-level radix-R RFC: MaxLeaves * R/2.
func MaxTerminals(radix, levels int) int {
	return MaxLeaves(radix, levels) * radix / 2
}

// RRNMaxSwitches returns the largest N such that a Δ-regular random network
// reaches diameter D, using the paper's Δ^D ≈ 2 N ln N rule (§4).
func RRNMaxSwitches(degree, diameter int) int {
	budget := math.Pow(float64(degree), float64(diameter))
	lo, hi := 2, 1<<40
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if 2*float64(mid)*math.Log(float64(mid)) <= budget {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// BisectionLowerBoundRRN returns the Bollobás lower bound on the bisection
// width of a Δ-regular random graph on N vertices:
// N/2 (Δ/2 − sqrt(Δ ln 2)).
func BisectionLowerBoundRRN(n, degree int) float64 {
	d := float64(degree)
	return float64(n) / 2 * (d/2 - math.Sqrt(d*math.Ln2))
}

// BisectionLowerBoundRFC returns the paper's §4.2 bound for an RFC:
// N1/4 ((l−1)R − sqrt(2(l−1)R ln 2)), obtained by applying Bollobás to the
// multigraph that merges pairs of switches across levels.
func BisectionLowerBoundRFC(n1, radix, levels int) float64 {
	lr := float64(levels-1) * float64(radix)
	return float64(n1) / 4 * (lr - math.Sqrt(2*lr*math.Ln2))
}

// NormalizedBisectionRFC divides the RFC bisection bound by the uniform-load
// demand on the cut. Each of the T/2 = N1 R/4 terminals in one half sends
// across, and an average up/down path traverses the bisection l−1 times
// (§4.2), so full rate needs N1 R (l−1)/4 crossings.
func NormalizedBisectionRFC(n1, radix, levels int) float64 {
	demand := float64(n1) * float64(radix) * float64(levels-1) / 4
	return BisectionLowerBoundRFC(n1, radix, levels) / demand
}
