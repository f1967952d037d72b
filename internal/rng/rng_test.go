package rng

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestUint64nRange(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 10, 100, 1 << 20, 1<<63 + 3} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nUniform(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(13)
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := New(seed).Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	_ = r
}

func TestPermUniformFirstElement(t *testing.T) {
	r := New(17)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("first element %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestShuffleSwapCount(t *testing.T) {
	r := New(19)
	n := 10
	calls := 0
	r.Shuffle(n, func(i, j int) { calls++ })
	if calls != n-1 {
		t.Errorf("Shuffle made %d swap calls, want %d", calls, n-1)
	}
}

// TestIntnStreamHash pins the Intn streams every randomised construction
// draws from: a SHA-256 over 100,000 draws from New(1) for each n, covering
// small and non-power-of-two bounds and one above 2^32, whose products
// need the full 64×64-bit multiply.
func TestIntnStreamHash(t *testing.T) {
	h := sha256.New()
	var word [8]byte
	for _, n := range []int{3, 7, 1000, 1<<40 + 1} {
		r := New(1)
		for i := 0; i < 100000; i++ {
			binary.LittleEndian.PutUint64(word[:], uint64(r.Intn(n)))
			h.Write(word[:])
		}
	}
	const want = "f9c082f3f4d87ca68b7c234fde5f46348e165a653a6b10e48bf9ddc2bf0cd1f6"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("Intn stream hash = %s, want %s", got, want)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000003)
	}
}

// TestReservoirMatchesIntn checks Reservoir against the Intn loop it
// replays: the same kept position and the same generator state after, for
// candidate counts up to 40 and a few large ones.
func TestReservoirMatchesIntn(t *testing.T) {
	ref := func(k int, r *Rand) int {
		if k <= 0 {
			return -1
		}
		w := 0
		for c := 2; c <= k; c++ {
			if r.Intn(c) == 0 {
				w = c - 1
			}
		}
		return w
	}
	a, b := New(5), New(5)
	for i := 0; i < 20000; i++ {
		k := i % 41
		if i%1000 == 999 {
			k = 1<<20 + i
		}
		if got, want := a.Reservoir(k), ref(k, b); got != want || a.s != b.s {
			t.Fatalf("draw %d: Reservoir(%d) = %d, Intn loop %d (states equal: %v)", i, k, got, want, a.s == b.s)
		}
	}
}
