package traffic

import (
	"math"
	"testing"

	"rfclos/internal/rng"
)

func TestUniformExcludesSelfAndCovers(t *testing.T) {
	r := rng.New(1)
	u := NewUniform(10)
	counts := make([]int, 10)
	const draws = 20000
	for i := 0; i < draws; i++ {
		d := u.Dest(3, r)
		if d == 3 {
			t.Fatal("uniform chose self")
		}
		if d < 0 || d >= 10 {
			t.Fatalf("destination %d out of range", d)
		}
		counts[d]++
	}
	want := float64(draws) / 9
	for i, c := range counts {
		if i == 3 {
			continue
		}
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("dest %d: %d draws, want ~%.0f", i, c, want)
		}
	}
	if NewUniform(1).Dest(0, r) != -1 {
		t.Error("single-terminal uniform should return -1")
	}
}

func TestPairingIsInvolution(t *testing.T) {
	r := rng.New(2)
	for _, n := range []int{2, 10, 100, 101} {
		p := NewPairing(n, r)
		silent := 0
		for i := 0; i < n; i++ {
			d := p.Dest(i, r)
			if d == -1 {
				silent++
				continue
			}
			if d == i {
				t.Fatalf("n=%d: terminal %d paired with itself", n, i)
			}
			if back := p.Dest(d, r); back != i {
				t.Fatalf("n=%d: pairing not symmetric: %d->%d->%d", n, i, d, back)
			}
		}
		wantSilent := n % 2
		if silent != wantSilent {
			t.Errorf("n=%d: %d silent terminals, want %d", n, silent, wantSilent)
		}
	}
}

func TestPairingIsRandom(t *testing.T) {
	// Over many pairings, terminal 0's partner should be roughly uniform.
	const n, trials = 8, 7000
	counts := make([]int, n)
	r := rng.New(3)
	for i := 0; i < trials; i++ {
		counts[NewPairing(n, r).Dest(0, nil)]++
	}
	want := float64(trials) / (n - 1)
	for i := 1; i < n; i++ {
		if math.Abs(float64(counts[i])-want) > 6*math.Sqrt(want) {
			t.Errorf("partner %d chosen %d times, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestFixedRandomStableAndHotspots(t *testing.T) {
	r := rng.New(4)
	f := NewFixedRandom(100, r)
	for i := 0; i < 100; i++ {
		d := f.Dest(i, r)
		if d == i || d < 0 || d >= 100 {
			t.Fatalf("bad fixed destination %d for %d", d, i)
		}
		for k := 0; k < 3; k++ {
			if f.Dest(i, r) != d {
				t.Fatal("fixed-random destination changed between calls")
			}
		}
	}
	// Fixed-random should produce at least one hot spot (two sources with
	// the same destination) with overwhelming probability at n=100
	// (birthday bound), unlike a permutation.
	seen := map[int]int{}
	collision := false
	for i := 0; i < 100; i++ {
		d := f.Dest(i, r)
		seen[d]++
		if seen[d] > 1 {
			collision = true
		}
	}
	if !collision {
		t.Error("fixed-random produced a perfect permutation (astronomically unlikely)")
	}
}

func TestNewByName(t *testing.T) {
	r := rng.New(5)
	for _, name := range Names() {
		p, err := New(name, 16, r)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("pattern name = %q, want %q", p.Name(), name)
		}
	}
	if _, err := New("transpose", 16, r); err == nil {
		t.Error("unknown pattern should fail")
	}
}

func TestShiftPattern(t *testing.T) {
	r := rng.New(6)
	s := NewShift(10, 0)
	if s.Offset != 5 {
		t.Errorf("default offset = %d, want T/2 = 5", s.Offset)
	}
	for i := 0; i < 10; i++ {
		if d := s.Dest(i, r); d != (i+5)%10 {
			t.Errorf("shift dest(%d) = %d, want %d", i, d, (i+5)%10)
		}
	}
	s3 := NewShift(10, 3)
	if d := s3.Dest(9, r); d != 2 {
		t.Errorf("shift-3 dest(9) = %d, want 2", d)
	}
	// A shift is a permutation: destinations all distinct.
	seen := map[int]bool{}
	for i := 0; i < 10; i++ {
		d := s3.Dest(i, r)
		if seen[d] {
			t.Fatalf("shift not a permutation: %d repeated", d)
		}
		seen[d] = true
	}
	// Degenerate cases.
	if NewShift(1, 0).Dest(0, r) != -1 {
		t.Error("single-terminal shift should be silent")
	}
	p, err := New("shift", 8, r)
	if err != nil || p.Name() != "shift" {
		t.Errorf("New(shift): %v %v", p, err)
	}
}
