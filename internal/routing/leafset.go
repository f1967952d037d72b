package routing

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// This file implements the hybrid compressed leaf-set containers the
// up/down routing state stores its descendant and cover sets in. A plain
// N1-bit Bitset per set costs O(N1²/8) across a build — ~1.6 GB at 64K
// leaves — yet in a folded Clos almost every set is highly structured:
// descendant sets are unions of contiguous leaf ranges (exactly contiguous
// in the XGFT family), low-level cover sets of a random RFC are small
// unions of sparse parent sets, and high-level cover sets are full or
// nearly full. The LeafSet interface lets every set pick the container
// that matches its shape:
//
//	empty   no leaves                           O(1) bytes
//	full    every leaf                          O(1) bytes
//	run     sorted [lo, hi) interval list       8 bytes per run
//	sparse  sorted leaf-id list                 4 bytes per member
//	comp    complement: all leaves except a     4 bytes per missing leaf
//	        sorted hole list
//	bits    raw Bitset fallback                 N1/8 bytes
//
// Each set is compressed to its cheapest container as it is produced, so
// the routing state's memory is proportional to the compressed size, not
// N1²/8. Containers are immutable after construction and safe for
// concurrent readers, so slots holding equal sets may share one container
// (leafSetBuilder, descSets); nothing compares containers by
// identity.

// LeafSet is an immutable set of leaf-switch indices in [0, n), the
// abstraction UpDown routes through instead of concrete Bitsets. All
// implementations answer membership in O(log size) or better and iterate
// as maximal runs in ascending order.
type LeafSet interface {
	// Get reports whether leaf index i is a member. i must be in [0, n).
	Get(i int) bool
	// Count returns the number of member leaves.
	Count() int
	// Full reports whether the set contains every leaf in [0, n).
	Full() bool
	// Runs calls yield for every maximal run [lo, hi) of members in
	// ascending order, stopping early when yield returns false.
	Runs(yield func(lo, hi int) bool) bool
	// OrInto ors the set's members into b (b must hold >= n bits).
	OrInto(b Bitset)
	// SizeBytes returns the container's memory footprint, including its
	// struct and slice headers.
	SizeBytes() int
	// Repr names the container: "empty", "full", "run", "sparse", "comp"
	// or "bits".
	Repr() string
}

// Per-container fixed overhead charged by SizeBytes: the container struct
// (universe + count fields, one slice header where present) plus the
// 16-byte interface header of the cover-slice slot it occupies is charged
// by CoverBytes, not here.
const (
	scalarSetBytes = 16 // emptySet / fullSet
	sliceSetBytes  = 40 // containers holding one slice
)

// emptySet is the no-members container.
type emptySet struct{ n int }

func (s emptySet) Get(int) bool                    { return false }
func (s emptySet) Count() int                      { return 0 }
func (s emptySet) Full() bool                      { return s.n == 0 }
func (s emptySet) Runs(func(lo, hi int) bool) bool { return true }
func (s emptySet) OrInto(Bitset)                   {}
func (s emptySet) SizeBytes() int                  { return scalarSetBytes }
func (s emptySet) Repr() string                    { return "empty" }

// fullSet contains every leaf in [0, n).
type fullSet struct{ n int }

func (s fullSet) Get(int) bool { return true }
func (s fullSet) Count() int   { return s.n }
func (s fullSet) Full() bool   { return true }
func (s fullSet) Runs(yield func(lo, hi int) bool) bool {
	if s.n == 0 {
		return true
	}
	return yield(0, s.n)
}
func (s fullSet) OrInto(b Bitset) { b.SetRange(0, s.n) }
func (s fullSet) SizeBytes() int  { return scalarSetBytes }
func (s fullSet) Repr() string    { return "full" }

// runSet stores sorted disjoint non-adjacent runs packed lo<<32|hi.
type runSet struct {
	n     int
	count int
	runs  []uint64
}

func runLo(r uint64) int { return int(r >> 32) }
func runHi(r uint64) int { return int(r & 0xffffffff) }
func packRun(lo, hi int) uint64 {
	return uint64(lo)<<32 | uint64(hi)
}

func (s *runSet) Get(i int) bool {
	// Rightmost run with lo <= i.
	k := sort.Search(len(s.runs), func(k int) bool { return runLo(s.runs[k]) > i }) - 1
	return k >= 0 && i < runHi(s.runs[k])
}
func (s *runSet) Count() int { return s.count }
func (s *runSet) Full() bool { return s.count == s.n }
func (s *runSet) Runs(yield func(lo, hi int) bool) bool {
	for _, r := range s.runs {
		if !yield(runLo(r), runHi(r)) {
			return false
		}
	}
	return true
}
func (s *runSet) OrInto(b Bitset) {
	for _, r := range s.runs {
		b.SetRange(runLo(r), runHi(r))
	}
}
func (s *runSet) SizeBytes() int { return sliceSetBytes + 8*len(s.runs) }
func (s *runSet) Repr() string   { return "run" }

// sparseSet stores a sorted member-id list.
type sparseSet struct {
	n   int
	ids []int32
}

func (s *sparseSet) Get(i int) bool {
	_, ok := slices.BinarySearch(s.ids, int32(i))
	return ok
}
func (s *sparseSet) Count() int { return len(s.ids) }
func (s *sparseSet) Full() bool { return len(s.ids) == s.n }
func (s *sparseSet) Runs(yield func(lo, hi int) bool) bool {
	for k := 0; k < len(s.ids); {
		lo := int(s.ids[k])
		hi := lo + 1
		k++
		for k < len(s.ids) && int(s.ids[k]) == hi {
			hi++
			k++
		}
		if !yield(lo, hi) {
			return false
		}
	}
	return true
}
func (s *sparseSet) OrInto(b Bitset) {
	for _, id := range s.ids {
		b.Set(int(id))
	}
}
func (s *sparseSet) SizeBytes() int { return sliceSetBytes + 4*len(s.ids) }
func (s *sparseSet) Repr() string   { return "sparse" }

// compSet is the complement container: every leaf in [0, n) except a
// sorted hole list. It is the cheap encoding of the nearly-full cover sets
// routable networks produce at high turn levels, where the few missing
// leaves are scattered (contiguous gaps compress as runs instead).
type compSet struct {
	n     int
	holes []int32
}

func (s *compSet) Get(i int) bool {
	_, ok := slices.BinarySearch(s.holes, int32(i))
	return !ok
}
func (s *compSet) Count() int { return s.n - len(s.holes) }
func (s *compSet) Full() bool { return len(s.holes) == 0 }
func (s *compSet) Runs(yield func(lo, hi int) bool) bool {
	lo := 0
	for _, h := range s.holes {
		if lo < int(h) && !yield(lo, int(h)) {
			return false
		}
		lo = int(h) + 1
	}
	if lo < s.n {
		return yield(lo, s.n)
	}
	return true
}
func (s *compSet) OrInto(b Bitset) {
	s.Runs(func(lo, hi int) bool {
		b.SetRange(lo, hi)
		return true
	})
}
func (s *compSet) SizeBytes() int { return sliceSetBytes + 4*len(s.holes) }
func (s *compSet) Repr() string   { return "comp" }

// bitsSet is the raw-bitset fallback for genuinely high-entropy sets.
type bitsSet struct {
	n     int
	count int
	bits  Bitset
}

func (s *bitsSet) Get(i int) bool { return s.bits.Get(i) }
func (s *bitsSet) Count() int     { return s.count }
func (s *bitsSet) Full() bool     { return s.count == s.n }
func (s *bitsSet) Runs(yield func(lo, hi int) bool) bool {
	for i := 0; i < s.n; {
		lo := s.bits.NextSet(i)
		if lo < 0 || lo >= s.n {
			return true
		}
		hi := s.bits.NextClear(lo)
		if hi > s.n {
			hi = s.n
		}
		if !yield(lo, hi) {
			return false
		}
		i = hi
	}
	return true
}
func (s *bitsSet) OrInto(b Bitset) { b.Or(s.bits) }
func (s *bitsSet) SizeBytes() int  { return sliceSetBytes + 8*len(s.bits) }
func (s *bitsSet) Repr() string    { return "bits" }

// leafSetCosts returns the byte cost of each candidate container for a set
// of cnt members forming nr runs over universe n, in the deterministic
// preference order compressChoice applies.
func leafSetCosts(n, cnt, nr int) (run, sparse, comp, bits int) {
	words := (n + 63) / 64
	return sliceSetBytes + 8*nr,
		sliceSetBytes + 4*cnt,
		sliceSetBytes + 4*(n-cnt),
		sliceSetBytes + 8*words
}

// containerChoice names the cheapest container for (n, cnt, nr). Ties
// resolve deterministically: sparse, then run, then comp, then bits.
func containerChoice(n, cnt, nr int) string {
	if cnt == 0 {
		return "empty"
	}
	if cnt == n {
		return "full"
	}
	costRun, costSparse, costComp, costBits := leafSetCosts(n, cnt, nr)
	best, repr := costSparse, "sparse"
	if costRun < best {
		best, repr = costRun, "run"
	}
	if costComp < best {
		best, repr = costComp, "comp"
	}
	if costBits < best {
		repr = "bits"
	}
	return repr
}

// newSingletonLeafSet returns the one-member set {i}.
func newSingletonLeafSet(n, i int) LeafSet {
	return &sparseSet{n: n, ids: []int32{int32(i)}}
}

// fromRange returns the contiguous set [lo, hi), the shape topology
// builders hand over directly when their wiring makes descendant leaf sets
// contiguous (Clos.LeafRange).
func (b *leafSetBuilder) fromRange(lo, hi int) LeafSet {
	switch {
	case lo >= hi:
		return b.empty
	case lo == 0 && hi == b.n:
		return b.full
	case hi-lo == 1:
		return newSingletonLeafSet(b.n, lo)
	}
	return &runSet{n: b.n, count: hi - lo, runs: []uint64{packRun(lo, hi)}}
}

// bitsetShape returns the member and maximal-run counts of the first
// words words of b.
func bitsetShape(b Bitset, words int) (cnt, nr int) {
	carry := uint64(0)
	for _, w := range b[:words] {
		cnt += bits.OnesCount64(w)
		nr += bits.OnesCount64(w &^ (w<<1 | carry))
		carry = w >> 63
	}
	return cnt, nr
}

// fromBits converts the first (n+63)/64 words of bs, holding cnt members
// in nr maximal runs (bitsetShape), into the cheapest container. bs is not
// retained (the bits container copies). Bits at positions >= n must be
// clear.
func (b *leafSetBuilder) fromBits(bs Bitset, cnt, nr int) LeafSet {
	n := b.n
	bs = bs[:b.words]
	switch containerChoice(n, cnt, nr) {
	case "empty":
		return b.empty
	case "full":
		return b.full
	case "run":
		runs := make([]uint64, 0, nr)
		for i := 0; i < n; {
			lo := bs.NextSet(i)
			if lo < 0 || lo >= n {
				break
			}
			hi := bs.NextClear(lo)
			if hi > n {
				hi = n
			}
			runs = append(runs, packRun(lo, hi))
			i = hi
		}
		return &runSet{n: n, count: cnt, runs: runs}
	case "sparse":
		ids := make([]int32, 0, cnt)
		for i := bs.NextSet(0); i >= 0 && i < n; i = bs.NextSet(i + 1) {
			ids = append(ids, int32(i))
		}
		return &sparseSet{n: n, ids: ids}
	case "comp":
		holes := make([]int32, 0, n-cnt)
		for i := bs.NextClear(0); i < n; i = bs.NextClear(i + 1) {
			holes = append(holes, int32(i))
		}
		return &compSet{n: n, holes: holes}
	}
	bits := make(Bitset, b.words)
	copy(bits, bs)
	return &bitsSet{n: n, count: cnt, bits: bits}
}

// fromRuns builds the cheapest container from sorted disjoint
// non-adjacent runs covering cnt members. The runs slice is copied when
// retained (callers reuse their buffers).
func (b *leafSetBuilder) fromRuns(runs []uint64, cnt int) LeafSet {
	n := b.n
	switch containerChoice(n, cnt, len(runs)) {
	case "empty":
		return b.empty
	case "full":
		return b.full
	case "run":
		return &runSet{n: n, count: cnt, runs: append([]uint64(nil), runs...)}
	case "sparse":
		ids := make([]int32, 0, cnt)
		for _, r := range runs {
			for i := runLo(r); i < runHi(r); i++ {
				ids = append(ids, int32(i))
			}
		}
		return &sparseSet{n: n, ids: ids}
	case "comp":
		holes := make([]int32, 0, n-cnt)
		lo := 0
		for _, r := range runs {
			for i := lo; i < runLo(r); i++ {
				holes = append(holes, int32(i))
			}
			lo = runHi(r)
		}
		for i := lo; i < n; i++ {
			holes = append(holes, int32(i))
		}
		return &compSet{n: n, holes: holes}
	}
	bits := NewBitset(n)
	for _, r := range runs {
		bits.SetRange(runLo(r), runHi(r))
	}
	return &bitsSet{n: n, count: cnt, bits: bits}
}

// leafSetBuilder accumulates unions of LeafSets and emits the compressed
// result. Interval-shaped inputs (empty, full, run, sparse) merge as
// sorted runs without touching a bitset; the first high-entropy input
// (bits, comp) or a run-count overflow falls back to one reusable scratch
// bitset, so peak transient memory is a single N1-bit buffer regardless of
// how many sets are built.
//
// One builder serves one routing-state build, and the containers it hands
// out are shared wherever their sets are equal: every full or empty result
// is the builder's one boxed full or empty set, and a union that adds no
// member to its largest input returns that input itself.
type leafSetBuilder struct {
	n, words int
	runCap   int
	runs     []uint64
	scratch  Bitset
	onBits   bool // union so far lives in scratch, not runs
	sawFull  bool
	dirty    bool    // scratch contains stale bits from a previous union
	largest  LeafSet // first added set with the most members, or nil
	// full and empty are boxed once per builder.
	full, empty LeafSet
}

func newLeafSetBuilder(n int) *leafSetBuilder {
	words := (n + 63) / 64
	return &leafSetBuilder{
		n:      n,
		words:  words,
		runCap: 2*words + 64,
		runs:   make([]uint64, 0, 64),
		full:   fullSet{n: n},
		empty:  emptySet{n: n},
	}
}

// reset starts a new union.
func (b *leafSetBuilder) reset() {
	b.runs = b.runs[:0]
	b.onBits = false
	b.sawFull = false
	b.largest = nil
}

// toBits migrates the collected runs into the scratch bitset.
func (b *leafSetBuilder) toBits() {
	if b.scratch == nil {
		b.scratch = NewBitset(b.n)
	} else if b.dirty {
		b.scratch.Clear()
	}
	for _, r := range b.runs {
		b.scratch.SetRange(runLo(r), runHi(r))
	}
	b.runs = b.runs[:0]
	b.onBits = true
	b.dirty = true
}

// add ors one set into the union being built. nil sets are ignored.
func (b *leafSetBuilder) add(s LeafSet) {
	if s == nil || b.sawFull {
		return
	}
	if s.Full() {
		b.sawFull = true
		return
	}
	if b.largest == nil || s.Count() > b.largest.Count() {
		b.largest = s
	}
	if b.onBits {
		s.OrInto(b.scratch)
		return
	}
	switch v := s.(type) {
	case emptySet:
	case *runSet:
		if len(b.runs)+len(v.runs) > b.runCap {
			b.toBits()
			s.OrInto(b.scratch)
			return
		}
		b.runs = append(b.runs, v.runs...)
	case *sparseSet:
		if len(b.runs)+len(v.ids) > b.runCap {
			b.toBits()
			s.OrInto(b.scratch)
			return
		}
		for _, id := range v.ids {
			b.runs = append(b.runs, packRun(int(id), int(id)+1))
		}
	default: // bits, comp: go through the scratch bitset
		b.toBits()
		s.OrInto(b.scratch)
	}
}

// finish compresses the accumulated union into its cheapest container and
// leaves the builder ready for reset.
func (b *leafSetBuilder) finish() LeafSet {
	if b.sawFull {
		return b.full
	}
	if b.onBits {
		cnt, nr := bitsetShape(b.scratch, b.words)
		if s := b.reuse(cnt, nr); s != nil {
			return s
		}
		return b.fromBits(b.scratch, cnt, nr)
	}
	if len(b.runs) == 0 {
		return b.empty
	}
	slices.Sort(b.runs)
	// Merge overlapping or adjacent runs in place.
	out := b.runs[:1]
	for _, r := range b.runs[1:] {
		last := out[len(out)-1]
		if runLo(r) <= runHi(last) {
			if runHi(r) > runHi(last) {
				out[len(out)-1] = packRun(runLo(last), runHi(r))
			}
			continue
		}
		out = append(out, r)
	}
	cnt := 0
	for _, r := range out {
		cnt += runHi(r) - runLo(r)
	}
	if s := b.reuse(cnt, len(out)); s != nil {
		return s
	}
	return b.fromRuns(out, cnt)
}

// reuse returns the largest input when the union of cnt members in nr
// runs equals it, or nil. The union contains the input, so they are equal
// when their counts are. The input is reused only when it is the container
// the union would compress to, so the slot's Repr and SizeBytes are what a
// fresh container would report.
func (b *leafSetBuilder) reuse(cnt, nr int) LeafSet {
	if l := b.largest; l != nil && l.Count() == cnt && l.Repr() == containerChoice(b.n, cnt, nr) {
		return l
	}
	return nil
}

// coverReprOrder is the fixed rendering order of CoverRepr.
var coverReprOrder = [...]string{"run", "sparse", "comp", "bits", "full", "empty"}

// reprIndex maps a container name to its coverReprOrder slot.
func reprIndex(repr string) int {
	for i, r := range coverReprOrder {
		if r == repr {
			return i
		}
	}
	return -1
}

// formatCoverRepr renders per-container counts ("run:12 sparse:3 full:9"),
// omitting zero counts, in the fixed coverReprOrder.
func formatCoverRepr(counts [len(coverReprOrder)]int) string {
	out := ""
	for i, name := range coverReprOrder {
		if counts[i] == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("%s:%d", name, counts[i])
	}
	if out == "" {
		return "none"
	}
	return out
}
