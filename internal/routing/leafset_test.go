package routing

import (
	"slices"
	"testing"

	"rfclos/internal/rng"
)

// bitsetOf builds an n-bit scratch with the given members set.
func bitsetOf(n int, members ...int) Bitset {
	b := NewBitset(n)
	for _, i := range members {
		b.Set(i)
	}
	return b
}

// clearBit clears bit i of b.
func clearBit(b Bitset, i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// checkLeafSetMatchesBitset verifies every LeafSet operation against the
// reference bitset the set was built from.
func checkLeafSetMatchesBitset(t *testing.T, s LeafSet, ref Bitset, n int) {
	t.Helper()
	if got, want := s.Count(), ref.Count(); got != want {
		t.Fatalf("%s: Count = %d, want %d", s.Repr(), got, want)
	}
	if got, want := s.Full(), ref.Full(n); got != want {
		t.Fatalf("%s: Full = %v, want %v", s.Repr(), got, want)
	}
	for i := 0; i < n; i++ {
		if got, want := s.Get(i), ref.Get(i); got != want {
			t.Fatalf("%s: Get(%d) = %v, want %v", s.Repr(), i, got, want)
		}
	}
	// Runs must be maximal, ascending, and reconstruct the set exactly.
	recon := NewBitset(n)
	last := -1 // previous run's hi; runs must be ascending with a gap between them
	s.Runs(func(lo, hi int) bool {
		if lo >= hi || lo <= last || hi > n {
			t.Fatalf("%s: bad run [%d, %d) after hi=%d", s.Repr(), lo, hi, last)
		}
		recon.SetRange(lo, hi)
		last = hi
		return true
	})
	for i, w := range recon {
		if w != ref[i] {
			t.Fatalf("%s: Runs reconstruction differs at word %d", s.Repr(), i)
		}
	}
	// Clear then OrInto must produce exactly the reference words (padding
	// bits clear).
	buf := NewBitset(n)
	for i := range buf {
		buf[i] = ^uint64(0) // garbage that Clear must overwrite
	}
	buf.Clear()
	s.OrInto(buf)
	for i, w := range buf {
		if w != ref[i] {
			t.Fatalf("%s: Clear+OrInto differs at word %d: %x vs %x", s.Repr(), i, w, ref[i])
		}
	}
	// OrInto must add exactly the members.
	or := bitsetOf(n, 0)
	want := bitsetOf(n, 0)
	want.Or(ref)
	s.OrInto(or)
	for i, w := range or {
		if w != want[i] {
			t.Fatalf("%s: OrInto differs at word %d", s.Repr(), i)
		}
	}
	if s.SizeBytes() <= 0 {
		t.Fatalf("%s: SizeBytes = %d", s.Repr(), s.SizeBytes())
	}
}

// TestContainerChoiceEdges pins the compressor's container transitions:
// empty, singleton, full, complement flip (all-but-few), contiguous run and
// the high-entropy bitset fallback.
func TestContainerChoiceEdges(t *testing.T) {
	n := 4096
	cases := []struct {
		name string
		fill func(b Bitset)
		want string
	}{
		{"empty", func(b Bitset) {}, "empty"},
		{"singleton", func(b Bitset) { b.Set(7) }, "sparse"},
		{"full", func(b Bitset) { b.SetRange(0, n) }, "full"},
		{"all-but-one", func(b Bitset) { b.SetRange(0, n); clearBit(b, 63) }, "comp"},
		{"all-but-scattered", func(b Bitset) {
			b.SetRange(0, n)
			for _, h := range []int{0, 100, 1000, 4095} {
				clearBit(b, h)
			}
		}, "comp"},
		{"contiguous-range", func(b Bitset) { b.SetRange(100, 900) }, "run"},
		{"few-runs", func(b Bitset) { b.SetRange(0, 64); b.SetRange(128, 300); b.SetRange(4000, n) }, "run"},
		{"alternating", func(b Bitset) {
			for i := 0; i < n; i += 2 {
				b.Set(i)
			}
		}, "bits"},
	}
	for _, tc := range cases {
		ref := NewBitset(n)
		tc.fill(ref)
		s := compressBitset(ref, n)
		if s.Repr() != tc.want {
			t.Fatalf("%s: compressed to %q, want %q", tc.name, s.Repr(), tc.want)
		}
		checkLeafSetMatchesBitset(t, s, ref, n)
	}
}

// TestLeafSetFromRangeEdges covers the direct-range constructor the
// topology leaf-range hints use.
func TestLeafSetFromRangeEdges(t *testing.T) {
	n := 500
	for _, tc := range []struct {
		lo, hi int
		want   string
	}{
		{10, 10, "empty"},
		{0, n, "full"},
		{42, 43, "sparse"},
		{17, 400, "run"},
	} {
		s := leafSetFromRange(n, tc.lo, tc.hi)
		if s.Repr() != tc.want {
			t.Fatalf("leafSetFromRange(%d, %d) = %q, want %q", tc.lo, tc.hi, s.Repr(), tc.want)
		}
		ref := NewBitset(n)
		ref.SetRange(tc.lo, tc.hi)
		checkLeafSetMatchesBitset(t, s, ref, n)
	}
}

// TestCompressEquivalenceRandom drives the compressor across densities and
// awkward universe sizes (word boundaries, single word, sub-word) and
// checks every operation against the source bitset.
func TestCompressEquivalenceRandom(t *testing.T) {
	r := rng.New(11)
	sizes := []int{1, 5, 63, 64, 65, 127, 128, 1000, 4096}
	densities := []int{0, 1, 5, 30, 70, 95, 99, 100} // percent
	for _, n := range sizes {
		for _, d := range densities {
			ref := NewBitset(n)
			for i := 0; i < n; i++ {
				if r.Intn(100) < d {
					ref.Set(i)
				}
			}
			s := compressBitset(ref, n)
			checkLeafSetMatchesBitset(t, s, ref, n)
		}
	}
}

// TestLeafSetBuilderUnion checks the run-merging union builder — including
// scratch fallback and builder reuse across unions — against a reference
// bitset OR.
func TestLeafSetBuilderUnion(t *testing.T) {
	r := rng.New(23)
	n := 777
	bld := newLeafSetBuilder(n)
	for round := 0; round < 60; round++ {
		parts := make([]LeafSet, 1+r.Intn(6))
		want := NewBitset(n)
		for i := range parts {
			ref := NewBitset(n)
			switch r.Intn(5) {
			case 0: // empty
			case 1: // range
				lo := r.Intn(n)
				ref.SetRange(lo, lo+1+r.Intn(n-lo))
			case 2: // sparse
				for k := 0; k < 1+r.Intn(9); k++ {
					ref.Set(r.Intn(n))
				}
			case 3: // near-full
				ref.SetRange(0, n)
				for k := 0; k < r.Intn(9); k++ {
					clearBit(ref, r.Intn(n))
				}
			default: // high-entropy
				for j := 0; j < n; j++ {
					if r.Intn(2) == 0 {
						ref.Set(j)
					}
				}
			}
			parts[i] = compressBitset(ref, n)
			want.Or(ref)
		}
		bld.reset()
		for _, p := range parts {
			bld.add(p)
		}
		got := bld.finish()
		checkLeafSetMatchesBitset(t, got, want, n)
	}
}

// TestBitsetHelpers verifies the SetRange/NextSet/NextClear primitives the
// containers are built on, against naive loops.
func TestBitsetHelpers(t *testing.T) {
	r := rng.New(31)
	for _, n := range []int{1, 64, 65, 130, 517} {
		for trial := 0; trial < 20; trial++ {
			b := NewBitset(n)
			lo := r.Intn(n)
			hi := lo + r.Intn(n-lo+1)
			b.SetRange(lo, hi)
			for i := 0; i < n; i++ {
				if got, want := b.Get(i), i >= lo && i < hi; got != want {
					t.Fatalf("n=%d SetRange(%d,%d): Get(%d) = %v", n, lo, hi, i, got)
				}
			}
			for i := 0; i <= n; i++ {
				wantSet := -1
				for j := i; j < n; j++ {
					if b.Get(j) {
						wantSet = j
						break
					}
				}
				// SetRange never touches padding bits, so NextSet can only
				// report in-universe positions or -1.
				if got := b.NextSet(i); got != wantSet {
					t.Fatalf("n=%d [%d,%d): NextSet(%d) = %d, want %d", n, lo, hi, i, got, wantSet)
				}
				wantClear := len(b) << 6
				for j := i; j < len(b)<<6; j++ {
					if j >= n || !b.Get(j) {
						wantClear = j
						break
					}
				}
				if got := b.NextClear(i); got != wantClear {
					t.Fatalf("n=%d [%d,%d): NextClear(%d) = %d, want %d", n, lo, hi, i, got, wantClear)
				}
			}
		}
	}
}

// FuzzLeafSet draws a membership over a universe of 1 to 4,096 leaves and
// checks every container the constructors pick for it against a plain
// bitset: compressBitset over the bitset, leafSetFromRuns over its maximal
// runs, and leafSetFromRange over its hull [lo, hi). data is read
// as alternating gap and run lengths, so short values give sparse or
// high-entropy sets, long ones runs, and invert turns either into the
// nearly-full shapes the complement container holds.
func FuzzLeafSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, size uint16, invert bool, data []byte) {
		n := int(size%4096) + 1
		member := make([]bool, n)
		pos := 0
		for i, x := range data {
			if i%2 == 1 {
				for j := pos; j < min(pos+int(x), n); j++ {
					member[j] = true
				}
			}
			pos += int(x)
		}
		ref := NewBitset(n)
		var runs []uint64
		cnt, lo, hi := 0, 0, 0
		for i := range member {
			if member[i] == invert {
				continue
			}
			ref.Set(i)
			cnt++
			if k := len(runs) - 1; k >= 0 && runHi(runs[k]) == i {
				runs[k] = packRun(runLo(runs[k]), i+1)
			} else {
				runs = append(runs, packRun(i, i+1))
			}
			if cnt == 1 {
				lo = i
			}
			hi = i + 1
		}
		checkLeafSetMatchesBitset(t, compressBitset(slices.Clone(ref), n), ref, n)
		checkLeafSetMatchesBitset(t, leafSetFromRuns(n, runs, cnt), ref, n)

		hull := NewBitset(n)
		for i := lo; i < hi; i++ {
			hull.Set(i)
		}
		checkLeafSetMatchesBitset(t, leafSetFromRange(n, lo, hi), hull, n)
	})
}
