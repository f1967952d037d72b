package routing

import (
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
	n1        int
	levels    int
	rows      []succinctRow
	sizeBytes int
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

// NewSuccinctTurnIndex builds the succinct index from u's cover sets. Each
// row merges the source leaf's covers, as sorted runs, against the runs of
// leaves already seen, in O(levels · runs) plus one write per exception:
// the majority class costs only its count.
//
// The topology must have at most 15 levels (turn codes are nibbles);
// NewTurnIndex guarantees this by selecting the dense tier otherwise.
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
	b := newSuccinctBuilder(n, l)
	covers := make([]LeafSet, l-1) // cover_r of the source leaf at r-1
	for src := 0; src < n; src++ {
		s := u.c.SwitchID(1, src)
		for r := 1; r < l; r++ {
			covers[r-1] = u.cover[r][s]
		}
		b.sweep(src, covers)
		reachable := 0
		for r := 1; r < l; r++ {
			reachable += b.counts[r]
		}
		unreach := n - 1 - reachable

		// Majority class: the code shared by most destinations encodes for
		// free. Ties resolve to "unreachable" first, then the lowest turn,
		// deterministically.
		maj, majCount := uint8(nibbleUnreachable), unreach
		for r := 1; r < l; r++ {
			if b.counts[r] > majCount {
				maj, majCount = uint8(r), b.counts[r]
			}
		}

		row := &ix.rows[src]
		row.majority = maj
		if exCount := n - 1 - majCount; exCount > 0 {
			row.codes = make([]uint8, (exCount+1)/2)
			if 4*exCount <= b.words*8+b.dirBytes {
				row.sparse = make([]int32, 0, exCount)
			} else {
				row.bits = make(Bitset, b.words)
			}
			b.emit(row, maj, unreach)
			if row.bits != nil {
				row.rank = NewRankDir(row.bits)
			}
		}
		ix.sizeBytes += rowOverheadBytes + len(row.sparse)*4 + len(row.bits)*8 + row.rank.SizeBytes() + len(row.codes)
	}
	return ix
}

// succinctBuilder holds the scratch state the row sweep reuses across
// rows: seen and delta_r as sorted maximal run lists. A sweep leaves
// counts[r] = |delta_r|, the destinations whose minimal turn is r, for
// emit to encode.
type succinctBuilder struct {
	n, words int
	dirBytes int
	counts   []int

	seen, next, covRuns, gaps []uint64
	deltas                    [][]uint64
	classes                   []codedRuns
	// addCovRun appends to covRuns. It is made once, so the cover's Runs
	// callback costs no allocation per row.
	addCovRun func(lo, hi int) bool
}

// codedRuns is one exception class: a sorted run list whose destinations
// share one turn code.
type codedRuns struct {
	runs []uint64
	code uint8
}

func newSuccinctBuilder(n, l int) *succinctBuilder {
	b := &succinctBuilder{
		n:        n,
		words:    (n + 63) / 64,
		dirBytes: NewRankDir(NewBitset(n)).SizeBytes(),
		counts:   make([]int, l),
		deltas:   make([][]uint64, l),
	}
	b.addCovRun = func(lo, hi int) bool {
		b.covRuns = append(b.covRuns, packRun(lo, hi))
		return true
	}
	return b
}

// sweep computes delta_r = cover_r \ (seen so far) by merging sorted run
// lists, touching only the covers' runs and the runs seen so far.
func (b *succinctBuilder) sweep(src int, covers []LeafSet) {
	b.seen = append(b.seen[:0], packRun(src, src+1))
	for k, cov := range covers {
		r := k + 1
		b.deltas[r] = b.deltas[r][:0]
		b.counts[r] = 0
		if cov == nil {
			continue
		}
		var runs []uint64
		if v, ok := cov.(*runSet); ok {
			runs = v.runs
		} else {
			b.covRuns = b.covRuns[:0]
			cov.Runs(b.addCovRun)
			runs = b.covRuns
		}
		b.deltas[r], b.counts[r] = subtractRuns(b.deltas[r], runs, b.seen)
		b.next = unionRuns(b.next[:0], b.seen, runs)
		b.seen, b.next = b.next, b.seen
	}
}

// emit writes row's exception membership and codes from the sweep's
// deltas: every class but maj, plus the unseen leaves as unreachable unless
// unreachable is the majority. Each class is a sorted run list and the
// classes are disjoint, so a merge over their heads visits the exception
// runs in position order.
func (b *succinctBuilder) emit(row *succinctRow, maj uint8, unreach int) {
	classes := b.classes[:0]
	for r := 1; r < len(b.counts); r++ {
		if uint8(r) != maj && len(b.deltas[r]) > 0 {
			classes = append(classes, codedRuns{b.deltas[r], uint8(r)})
		}
	}
	if maj != nibbleUnreachable && unreach > 0 {
		b.gaps, _ = subtractRuns(b.gaps[:0], []uint64{packRun(0, b.n)}, b.seen)
		classes = append(classes, codedRuns{b.gaps, nibbleUnreachable})
	}
	b.classes = classes
	k, sparse := 0, row.sparse != nil
	for len(classes) > 0 {
		m := 0
		for i := 1; i < len(classes); i++ {
			if classes[i].runs[0] < classes[m].runs[0] {
				m = i
			}
		}
		c := &classes[m]
		lo, hi := runLo(c.runs[0]), runHi(c.runs[0])
		if !sparse {
			row.bits.SetRange(lo, hi)
		}
		for dst := lo; dst < hi; dst++ {
			if sparse {
				row.sparse = append(row.sparse, int32(dst))
			}
			row.codes[k/2] |= c.code << (uint(k%2) * 4)
			k++
		}
		if c.runs = c.runs[1:]; len(c.runs) == 0 {
			classes[m] = classes[len(classes)-1]
			classes = classes[:len(classes)-1]
		}
	}
}

// subtractRuns appends the runs of cov \ seen to dst and returns it with
// their member count. Both inputs are sorted disjoint run lists.
func subtractRuns(dst, cov, seen []uint64) ([]uint64, int) {
	cnt, i := 0, 0
	for _, c := range cov {
		lo, hi := runLo(c), runHi(c)
		for i < len(seen) && runHi(seen[i]) <= lo {
			i++
		}
		for j := i; lo < hi && j < len(seen) && runLo(seen[j]) < hi; j++ {
			if sl := runLo(seen[j]); sl > lo {
				dst = append(dst, packRun(lo, sl))
				cnt += sl - lo
			}
			lo = max(lo, runHi(seen[j]))
		}
		if lo < hi {
			dst = append(dst, packRun(lo, hi))
			cnt += hi - lo
		}
	}
	return dst, cnt
}

// unionRuns appends the maximal runs of a ∪ b to dst. Both inputs are
// sorted disjoint run lists; packed runs order by lo.
func unionRuns(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var r uint64
		if j == len(b) || i < len(a) && a[i] < b[j] {
			r, i = a[i], i+1
		} else {
			r, j = b[j], j+1
		}
		if k := len(dst) - 1; k >= 0 && runLo(r) <= runHi(dst[k]) {
			if runHi(r) > runHi(dst[k]) {
				dst[k] = packRun(runLo(dst[k]), runHi(r))
			}
			continue
		}
		dst = append(dst, r)
	}
	return dst
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

// Tier names the succinct implementation.
func (ix *SuccinctTurnIndex) Tier() string { return "succinct" }
