// Package rng provides a small, fast, deterministic pseudo-random number
// generator used by every randomised construction and simulation in this
// repository. Determinism matters here: a topology, a traffic trace and a
// whole simulation must be exactly reproducible from a single seed so that
// experiments in EXPERIMENTS.md can be re-run bit-for-bit.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend. Independent sub-streams for concurrent or structurally separate
// uses (e.g. one stream per sweep job) are derived from coordinates with At
// or DeriveSeed.
package rng

import "math/bits"

// Rand is a xoshiro256** pseudo-random number generator. The zero value is
// not usable; construct with New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is used
// only to expand seeds into full generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator deterministically derived from seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.Reseed(seed)
	return r
}

// Reseed resets r in place to the state New(seed) starts from, so a loop
// over many short streams can reuse one generator.
func (r *Rand) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro256** state must not be all zero; splitmix64 guarantees this
	// is astronomically unlikely, but make it impossible anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// DeriveSeed deterministically maps a root seed plus a tuple of job
// coordinates to a sub-seed. It is the splittable-seed primitive behind every
// parallel sweep in this repository: a job identified by its coordinates
// (e.g. network, traffic pattern, load index, repetition) always receives the
// same stream no matter which worker runs it or in which order jobs complete.
//
// The derivation is a splitmix64-fed chain over the coordinates, finalized
// with the tuple length so that prefixes of a tuple do not collide with the
// tuple itself. Distinct coordinate tuples yield independent streams up to
// the collision probability of a 64-bit hash.
func DeriveSeed(seed uint64, coords ...uint64) uint64 {
	x := seed ^ 0x9e3779b97f4a7c15
	h := splitmix64(&x)
	for _, c := range coords {
		x = h ^ c
		h = splitmix64(&x)
	}
	x = h ^ uint64(len(coords))*0x94d049bb133111eb
	return splitmix64(&x)
}

// At returns a generator for the job identified by (seed, coords...):
// shorthand for New(DeriveSeed(seed, coords...)).
func At(seed uint64, coords ...uint64) *Rand {
	return New(DeriveSeed(seed, coords...))
}

// StringCoord hashes a label (a network or pattern name, an experiment tag)
// into a coordinate for DeriveSeed/At, so sweeps can key their streams by
// stable names instead of fragile positional indices. FNV-1a, 64-bit.
func StringCoord(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
// Uses Lemire's multiply-shift rejection method.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Lemire rejection sampling on the high 64 bits of a 128-bit product.
	for {
		v := r.Uint64()
		hi, lo := bits.Mul64(v, n)
		if lo >= n || lo >= (-n)%n {
			return hi
		}
	}
}

// Reservoir returns the position a uniform reservoir sample over k
// candidates seen in order keeps, or -1 when k <= 0: for c = 2..k it draws
// Intn(c) and keeps candidate c-1 whenever the draw is 0. It consumes
// exactly those draws, with the generator state held in locals across
// them. Every up/down hop picker in routing draws through it, and so does
// the flow backend's grouped walk, which must draw exactly what those
// pickers draw.
func (r *Rand) Reservoir(k int) int {
	if k <= 0 {
		return -1
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	w := 0
	for c := 2; c <= k; c++ {
		n := uint64(c)
		for {
			// One Uint64 step, then Uint64n's test of it.
			v := rotl(s1*5, 7) * 9
			t := s1 << 17
			s2 ^= s0
			s3 ^= s1
			s1 ^= s2
			s0 ^= s3
			s2 ^= t
			s3 = rotl(s3, 45)
			if n&(n-1) == 0 {
				if v&(n-1) == 0 {
					w = c - 1
				}
				break
			}
			if hi, lo := bits.Mul64(v, n); lo >= n || lo >= (-n)%n {
				if hi == 0 {
					w = c - 1
				}
				break
			}
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return w
}

// Intn returns a uniform int in [0, n). n must be > 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns a uniformly random boolean.
func (r *Rand) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n) as a slice.
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts performs an in-place Fisher–Yates shuffle of p.
func (r *Rand) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle performs an in-place Fisher–Yates shuffle of n elements using the
// provided swap function, mirroring math/rand.Shuffle.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
