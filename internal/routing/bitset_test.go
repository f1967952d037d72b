package routing

import (
	"testing"

	"rfclos/internal/rng"
)

// naiveRank counts set bits in [0, i) one by one.
func naiveRank(b Bitset, i int) int {
	n := 0
	for j := 0; j < i; j++ {
		if b.Get(j) {
			n++
		}
	}
	return n
}

// TestRankSelect pins RankDir.Rank against the naive definition on random
// bitsets spanning the word-boundary edge cases.
func TestRankSelect(t *testing.T) {
	r := rng.New(11)
	for _, n := range []int{1, 7, 63, 64, 65, 200, 512, 513, 1000} {
		for _, density := range []int{0, 3, 50, 100} {
			b := NewBitset(n)
			for i := 0; i < n; i++ {
				if r.Intn(100) < density {
					b.Set(i)
				}
			}
			dir := NewRankDir(b)
			if dir.Count() != b.Count() {
				t.Fatalf("n=%d density=%d: RankDir.Count = %d, want %d", n, density, dir.Count(), b.Count())
			}
			if dir.SizeBytes() != 4*len(dir) {
				t.Fatalf("RankDir.SizeBytes = %d, want %d", dir.SizeBytes(), 4*len(dir))
			}
			for i := 0; i < n; i++ {
				if got, want := dir.Rank(b, i), naiveRank(b, i); got != want {
					t.Fatalf("n=%d density=%d: RankDir.Rank(%d) = %d, want %d", n, density, i, got, want)
				}
			}
		}
	}
}

// TestNibbleAt pins the 4-bit packing order MinTurn decoding relies on.
func TestNibbleAt(t *testing.T) {
	codes := []uint8{0x21, 0xf3}
	want := []uint8{1, 2, 3, 0xf}
	for i, w := range want {
		if got := nibbleAt(codes, i); got != w {
			t.Fatalf("nibbleAt(%d) = %#x, want %#x", i, got, w)
		}
	}
}
