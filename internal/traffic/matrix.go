package traffic

import (
	"fmt"

	"rfclos/internal/rng"
)

// This file defines the traffic-matrix side of the package: explicit
// per-flow demand lists for the flow-level max-min-fair backend
// (internal/flow), plus an adapter that lets the cycle-accurate engine
// consume the same matrices. Every generator is a pure function of its
// parameters and the supplied rng stream, so a matrix is reproducible from
// (params, seed) alone and identical on any worker count.

// Demand is one flow of a traffic matrix: terminal Src offers Rate units of
// traffic (1.0 = a terminal's full injection bandwidth) toward terminal Dst.
type Demand struct {
	Src, Dst int32
	Rate     float64
}

// MatrixFromPattern materialises one flow per source from a Pattern: source
// s sends rate 1 to pat.Dest(s, r). Sources the pattern leaves silent
// (Dest < 0) and self-destinations emit no flow. It is how the §6 synthetic
// patterns (uniform, random-pairing, fixed-random, shift) become matrices
// for the flow backend.
func MatrixFromPattern(pat Pattern, t int, r *rng.Rand) []Demand {
	out := make([]Demand, 0, t)
	for s := 0; s < t; s++ {
		d := pat.Dest(s, r)
		if d < 0 || d == s {
			continue
		}
		out = append(out, Demand{Src: int32(s), Dst: int32(d), Rate: 1})
	}
	return out
}

// UniformMatrix gives every source flowsPerSrc independently chosen uniform
// random destinations (excluding itself), each carrying rate 1/flowsPerSrc,
// so the total offered load per terminal is 1. It is the flow-level
// analogue of per-packet uniform traffic: spreading each source over
// several flows approximates the packet pattern's destination diversity.
func UniformMatrix(t, flowsPerSrc int, r *rng.Rand) []Demand {
	if t < 2 || flowsPerSrc < 1 {
		return nil
	}
	rate := 1 / float64(flowsPerSrc)
	out := make([]Demand, 0, t*flowsPerSrc)
	for s := 0; s < t; s++ {
		for k := 0; k < flowsPerSrc; k++ {
			d := r.Intn(t - 1)
			if d >= s {
				d++
			}
			out = append(out, Demand{Src: int32(s), Dst: int32(d), Rate: rate})
		}
	}
	return out
}

// HotspotMatrix models skewed traffic: hotspots terminals (chosen uniformly
// at random) each receive hotFrac of every other source's bandwidth, while
// the remaining 1-hotFrac goes to an independent uniform destination. Hot
// terminals themselves only send background traffic.
func HotspotMatrix(t, hotspots int, hotFrac float64, r *rng.Rand) []Demand {
	if t < 2 || hotspots < 1 || hotspots >= t {
		return nil
	}
	perm := r.Perm(t)
	hot := perm[:hotspots]
	isHot := make([]bool, t)
	for _, h := range hot {
		isHot[h] = true
	}
	out := make([]Demand, 0, 2*t)
	for s := 0; s < t; s++ {
		if !isHot[s] && hotFrac > 0 {
			h := hot[r.Intn(hotspots)]
			out = append(out, Demand{Src: int32(s), Dst: int32(h), Rate: hotFrac})
		}
		bg := 1 - hotFrac
		if isHot[s] {
			bg = 1
		}
		if bg > 0 {
			d := r.Intn(t - 1)
			if d >= s {
				d++
			}
			out = append(out, Demand{Src: int32(s), Dst: int32(d), Rate: bg})
		}
	}
	return out
}

// IncastMatrix partitions the terminals into random groups of fanIn+1; in
// each group one member is the sink and the other fanIn members offer rate
// 1 to it. Max-min fairness caps each group's flows at 1/fanIn (the sink's
// ejection link), making incast the canonical ejection-bottleneck workload.
func IncastMatrix(t, fanIn int, r *rng.Rand) []Demand {
	if t < 2 || fanIn < 1 {
		return nil
	}
	perm := r.Perm(t)
	group := fanIn + 1
	out := make([]Demand, 0, t)
	for base := 0; base+group <= t; base += group {
		sink := int32(perm[base])
		for k := 1; k <= fanIn; k++ {
			out = append(out, Demand{Src: int32(perm[base+k]), Dst: sink, Rate: 1})
		}
	}
	return out
}

// ElephantMiceMatrix mixes a few full-rate elephant flows with many small
// mice: the first round(elephantFrac*t) terminals of a random permutation
// send rate 1 to a uniform destination; every other terminal sends rate
// miceRate likewise.
func ElephantMiceMatrix(t int, elephantFrac, miceRate float64, r *rng.Rand) []Demand {
	if t < 2 {
		return nil
	}
	elephants := int(elephantFrac*float64(t) + 0.5)
	if elephants > t {
		elephants = t
	}
	perm := r.Perm(t)
	out := make([]Demand, 0, t)
	for i, s := range perm {
		rate := miceRate
		if i < elephants {
			rate = 1
		}
		if rate <= 0 {
			continue
		}
		d := r.Intn(t - 1)
		if d >= s {
			d++
		}
		out = append(out, Demand{Src: int32(s), Dst: int32(d), Rate: rate})
	}
	return out
}

// StormMatrix overlays storms independent random permutations, each flow
// carrying rate 1/storms: every terminal sends to `storms` distinct-ish
// partners at once, the all-to-all analogue of repeated permutation
// traffic. Fixed points of a permutation emit no flow.
func StormMatrix(t, storms int, r *rng.Rand) []Demand {
	if t < 2 || storms < 1 {
		return nil
	}
	rate := 1 / float64(storms)
	out := make([]Demand, 0, t*storms)
	for k := 0; k < storms; k++ {
		perm := r.Perm(t)
		for s, d := range perm {
			if d == s {
				continue
			}
			out = append(out, Demand{Src: int32(s), Dst: int32(d), Rate: rate})
		}
	}
	return out
}

// NewMatrix builds the named canonical traffic matrix over t terminals,
// consuming randomness from r. Pattern-backed names reuse the §6 pattern
// constructors, except "uniform", which becomes 4 flows per source so the
// matrix keeps some of the packet pattern's destination diversity; the
// flow-only names use fixed canonical parameters:
//
//	hotspot        max(1, t/128) hot terminals receiving 50% of each source
//	incast         fan-in 8 groups
//	elephant-mice  10% elephants at rate 1, mice at rate 0.1
//	storm          4 overlaid random permutations
//
// Every matrix offers at most rate 1 per source, so scaling all rates by an
// offered-load factor in [0, 1] mirrors the cycle backend's load knob.
func NewMatrix(name string, t int, r *rng.Rand) ([]Demand, error) {
	switch name {
	case "uniform":
		return UniformMatrix(t, 4, r), nil
	case "random-pairing", "fixed-random", "shift":
		pat, err := New(name, t, r)
		if err != nil {
			return nil, err
		}
		return MatrixFromPattern(pat, t, r), nil
	case "hotspot":
		return HotspotMatrix(t, max(1, t/128), 0.5, r), nil
	case "incast":
		return IncastMatrix(t, 8, r), nil
	case "elephant-mice":
		return ElephantMiceMatrix(t, 0.1, 0.1, r), nil
	case "storm":
		return StormMatrix(t, 4, r), nil
	default:
		return nil, fmt.Errorf("traffic: unknown matrix %q", name)
	}
}

// ScaleMatrix returns a copy of m with every rate multiplied by load, the
// flow backend's offered-load knob.
func ScaleMatrix(m []Demand, load float64) []Demand {
	out := make([]Demand, len(m))
	for i, d := range m {
		d.Rate *= load
		out[i] = d
	}
	return out
}
