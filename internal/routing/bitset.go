// Package routing implements the deadlock-free up/down equal-cost
// multi-path routing of folded Clos networks (§4.1 of the paper) for every
// indirect topology in this repository, including its behaviour under link
// faults, plus the k-shortest-path routing used by the RRN baseline.
package routing

import "math/bits"

// Bitset is a fixed-capacity bitset used for descendant and cover sets over
// leaf switches.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits, all zero.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// SetRange sets bits [lo, hi).
func (b Bitset) SetRange(lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		b[loW] |= loMask & hiMask
		return
	}
	b[loW] |= loMask
	for i := loW + 1; i < hiW; i++ {
		b[i] = ^uint64(0)
	}
	b[hiW] |= hiMask
}

// NextSet returns the position of the first set bit at or after i, or -1
// when no set bit remains.
func (b Bitset) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i >> 6
	if wi >= len(b) {
		return -1
	}
	if w := b[wi] &^ ((1 << (uint(i) & 63)) - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b); wi++ {
		if w := b[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// NextClear returns the position of the first clear bit at or after i,
// which is len(b)*64 when every remaining bit is set. Callers bounding the
// bitset to n logical bits must clamp the result to n themselves.
func (b Bitset) NextClear(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i >> 6
	if wi >= len(b) {
		return len(b) << 6
	}
	if w := ^b[wi] &^ ((1 << (uint(i) & 63)) - 1); w != 0 {
		return wi<<6 + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b); wi++ {
		if w := ^b[wi]; w != 0 {
			return wi<<6 + bits.TrailingZeros64(w)
		}
	}
	return len(b) << 6
}

// Or merges other into b (b |= other).
func (b Bitset) Or(other Bitset) {
	for i, w := range other {
		b[i] |= w
	}
}

// Clear zeroes the bitset.
func (b Bitset) Clear() {
	for i := range b {
		b[i] = 0
	}
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Full reports whether bits 0..n-1 are all set.
func (b Bitset) Full(n int) bool {
	whole := n >> 6
	for i := 0; i < whole; i++ {
		if b[i] != ^uint64(0) {
			return false
		}
	}
	if rem := uint(n) & 63; rem != 0 {
		mask := (uint64(1) << rem) - 1
		if b[whole]&mask != mask {
			return false
		}
	}
	return true
}

// rankBlockWords is the RankDir superblock width in words (512 bits): one
// cumulative counter per block keeps the directory at 1/16 of the bitset
// while bounding a rank query to at most 8 in-block popcounts.
const rankBlockWords = 8

// RankDir is a rank directory over a frozen Bitset: dir[i] is the number of
// set bits strictly before word block i. Together with the bitset it answers
// Rank in O(1) word operations; the bitset must not change afterwards.
type RankDir []int32

// NewRankDir builds the rank directory of b.
func NewRankDir(b Bitset) RankDir {
	dir := make(RankDir, (len(b)+rankBlockWords-1)/rankBlockWords+1)
	n := int32(0)
	for wi, w := range b {
		if wi%rankBlockWords == 0 {
			dir[wi/rankBlockWords] = n
		}
		n += int32(bits.OnesCount64(w))
	}
	dir[len(dir)-1] = n
	return dir
}

// Rank returns the number of set bits of b in [0, i). b must be the bitset
// the directory was built from.
func (d RankDir) Rank(b Bitset, i int) int {
	wi := i >> 6
	blk := wi / rankBlockWords
	n := int(d[blk])
	for _, w := range b[blk*rankBlockWords : wi] {
		n += bits.OnesCount64(w)
	}
	if rem := uint(i) & 63; rem != 0 {
		n += bits.OnesCount64(b[wi] & ((1 << rem) - 1))
	}
	return n
}

// Count returns the total number of set bits recorded by the directory.
func (d RankDir) Count() int { return int(d[len(d)-1]) }

// SizeBytes returns the directory's memory footprint.
func (d RankDir) SizeBytes() int { return 4 * len(d) }
