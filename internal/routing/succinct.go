package routing

import (
	"math/bits"
	"slices"
)

// SuccinctTurnIndex is the compressed TurnIndex tier for leaf counts where
// the dense N1² byte table does not fit in memory. Instead of one byte per
// ordered pair it stores, per source leaf, only the *exceptions* to the
// row's majority turn value:
//
//   - the majority class of the row (the turn value — or "unreachable" —
//     shared by most destinations) costs nothing per destination;
//   - exception destinations are kept either as a sorted id list (sparse
//     rows) or as a bitset with a rank directory (dense rows), with their
//     turn values packed as 4-bit codes indexed by Rank(dst).
//
// In the folded Clos topologies this repository builds, almost every pair
// turns at one of the top levels, so exception rows are tiny: a few percent
// of the dense footprint at 64K+ leaves. A lookup is O(levels) word
// operations (one membership probe plus an O(1) rank).
//
// The index is immutable after construction, so concurrent readers need no
// locking and SizeBytes is a pure function of the topology.
type SuccinctTurnIndex struct {
	n1          int
	levels      int
	rows        []succinctRow
	sizeBytes   int
	unreachable int64
}

// succinctRow is one source leaf's exception encoding. Exactly one of
// sparse (sorted exception ids, binary-searched) and bits (exception
// membership bitset + rank directory) is non-nil unless the row has no
// exceptions; codes packs one 4-bit turn code per exception in ascending
// destination order.
type succinctRow struct {
	majority uint8 // nibble code most destinations share
	sparse   []int32
	bits     Bitset
	rank     RankDir
	codes    []uint8
}

// nibbleUnreachable is the 4-bit code for "no up/down path"; turn values
// 1..maxSuccinctTurn code as themselves (turn 0 is only ever the diagonal,
// answered before row decoding).
const (
	nibbleUnreachable = 0xf
	maxSuccinctTurn   = nibbleUnreachable - 1
	// rowOverheadBytes approximates the per-row bookkeeping the struct
	// costs (slice headers), charged by SizeBytes so the reported
	// footprint is honest.
	rowOverheadBytes = 104
)

// NewSuccinctTurnIndex builds the succinct index from u's cover sets in
// O(levels · N1²/64) word operations plus O(exceptions) id writes. The
// topology must have at most 15 levels (turn codes are nibbles); NewTurnIndex
// guarantees this by selecting the dense tier otherwise.
func NewSuccinctTurnIndex(u *UpDown) *SuccinctTurnIndex {
	n := u.n1
	l := len(u.cover)
	if l-1 > maxSuccinctTurn {
		panic("routing: succinct turn index needs <= 15 levels")
	}
	ix := &SuccinctTurnIndex{
		n1:     n,
		levels: l,
		rows:   make([]succinctRow, n),
	}

	words := (n + 63) / 64
	seen := NewBitset(n)
	exc := NewBitset(n)
	// covBuf materialises one compressed cover set at a time as plain words
	// for the delta computation below — the only transient dense state the
	// build needs, reused across all (src, r) pairs.
	covBuf := NewBitset(n)
	deltas := make([]Bitset, l)
	for r := 1; r < l; r++ {
		deltas[r] = NewBitset(n)
	}
	counts := make([]int, l)
	codeOf := make([]uint8, n)
	dirBytes := NewRankDir(exc).SizeBytes()

	for src := 0; src < n; src++ {
		s := u.c.SwitchID(1, src)
		seen.Clear()
		seen.Set(src)
		reachable := 0
		for r := 1; r < l; r++ {
			counts[r] = 0
			cov := u.cover[r][s]
			if cov == nil {
				continue
			}
			cov.Fill(covBuf)
			delta := deltas[r]
			for i, w := range covBuf {
				d := w &^ seen[i]
				delta[i] = d
				seen[i] |= d
				counts[r] += bits.OnesCount64(d)
			}
			reachable += counts[r]
		}
		unreach := n - 1 - reachable
		ix.unreachable += int64(unreach)

		// Majority class: the code shared by most destinations encodes for
		// free. Ties resolve to "unreachable" first, then the lowest turn,
		// deterministically.
		maj, majCount := uint8(nibbleUnreachable), unreach
		for r := 1; r < l; r++ {
			if counts[r] > majCount {
				maj, majCount = uint8(r), counts[r]
			}
		}

		// Exception membership + per-destination codes.
		exc.Clear()
		for r := 1; r < l; r++ {
			if uint8(r) == maj || counts[r] == 0 {
				continue
			}
			for i, d := range deltas[r] {
				exc[i] |= d
				for d != 0 {
					b := bits.TrailingZeros64(d)
					d &= d - 1
					codeOf[i<<6+b] = uint8(r)
				}
			}
		}
		if maj != nibbleUnreachable && unreach > 0 {
			for i := 0; i < words; i++ {
				d := ^seen[i]
				if i == words-1 {
					if rem := uint(n) & 63; rem != 0 {
						d &= (1 << rem) - 1
					}
				}
				exc[i] |= d
				for d != 0 {
					b := bits.TrailingZeros64(d)
					d &= d - 1
					codeOf[i<<6+b] = nibbleUnreachable
				}
			}
		}

		exCount := n - 1 - majCount
		row := &ix.rows[src]
		row.majority = maj
		if exCount > 0 {
			row.codes = make([]uint8, (exCount+1)/2)
			sparse := 4*exCount <= words*8+dirBytes
			if sparse {
				row.sparse = make([]int32, 0, exCount)
			} else {
				row.bits = make(Bitset, words)
				copy(row.bits, exc)
				row.rank = NewRankDir(row.bits)
			}
			k := 0
			for i, w := range exc {
				for w != 0 {
					b := bits.TrailingZeros64(w)
					w &= w - 1
					dst := i<<6 + b
					if sparse {
						row.sparse = append(row.sparse, int32(dst))
					}
					row.codes[k/2] |= codeOf[dst] << (uint(k%2) * 4)
					k++
				}
			}
		}
		ix.sizeBytes += rowOverheadBytes + len(row.sparse)*4 + len(row.bits)*8 + row.rank.SizeBytes() + len(row.codes)
	}
	return ix
}

// nibbleAt extracts the i-th 4-bit code.
func nibbleAt(codes []uint8, i int) uint8 {
	return codes[i/2] >> (uint(i%2) * 4) & 0xf
}

// MinTurn returns the minimal up-hop count from leaf src to leaf dst, or -1
// when no up/down path exists. Safe for concurrent use.
func (ix *SuccinctTurnIndex) MinTurn(src, dst int) int {
	if src == dst {
		return 0
	}
	row := &ix.rows[src]
	code := row.majority
	if row.bits != nil {
		if row.bits.Get(dst) {
			code = nibbleAt(row.codes, row.rank.Rank(row.bits, dst))
		}
	} else if len(row.sparse) > 0 {
		if i, ok := slices.BinarySearch(row.sparse, int32(dst)); ok {
			code = nibbleAt(row.codes, i)
		}
	}
	if code == nibbleUnreachable {
		return -1
	}
	return int(code)
}

// Leaves returns the number of leaf switches the index covers.
func (ix *SuccinctTurnIndex) Leaves() int { return ix.n1 }

// SizeBytes returns the index's memory footprint: the exception encoding
// plus per-row bookkeeping, fixed at construction.
func (ix *SuccinctTurnIndex) SizeBytes() int { return ix.sizeBytes }

// Routable reports whether every ordered leaf pair has an up/down path.
func (ix *SuccinctTurnIndex) Routable() bool { return ix.unreachable == 0 }

// UnreachablePairs returns the number of ordered leaf pairs without an
// up/down path, counted once during construction.
func (ix *SuccinctTurnIndex) UnreachablePairs() int64 { return ix.unreachable }

// Tier names the succinct implementation.
func (ix *SuccinctTurnIndex) Tier() string { return "succinct" }
