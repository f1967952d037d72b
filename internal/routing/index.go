package routing

// TurnIndex is a precomputed up/down route index: for every ordered pair of
// leaf switches it answers the minimal number of up hops (the "turn level")
// of a shortest up/down path, the quantity MinTurn computes from the cover
// sets. Implementations are immutable after construction, so concurrent
// readers need no synchronisation and SizeBytes never changes with traffic —
// the shape the serving layer (internal/service) wants for cached topologies
// answering many path queries.
//
// Two tiers exist:
//
//   - MinTurnIndex: a dense N1×N1 byte table, O(1) lookups, N1² bytes;
//   - SuccinctTurnIndex: per-leaf exception-coded rows over the majority
//     turn value with rank/select lookup, O(levels) word operations per
//     lookup and typically a few percent of the dense footprint.
//
// NewTurnIndex picks the tier from a byte budget for the dense table.
type TurnIndex interface {
	// MinTurn returns the minimal up-hop count of a shortest up/down path
	// from leaf index src to leaf index dst, or -1 when no up/down path
	// exists. Equivalent to (*UpDown).MinTurn.
	MinTurn(src, dst int) int
	// Leaves returns the number of leaf switches the index covers.
	Leaves() int
	// SizeBytes returns the index's own memory footprint, fixed at
	// construction.
	SizeBytes() int
	// Routable reports whether every ordered leaf pair has an up/down
	// path. Precomputed at build time; O(1).
	Routable() bool
	// UnreachablePairs returns the number of ordered leaf pairs (src !=
	// dst) without an up/down path. Precomputed at build time; O(1).
	UnreachablePairs() int64
	// Tier names the implementation: "dense" or "succinct".
	Tier() string
}

// NewTurnIndex builds the turn index for u, choosing the tier by memory: the
// dense byte table when it fits in denseBudget bytes (denseBudget <= 0 means
// always dense), the succinct representation otherwise.
func NewTurnIndex(u *UpDown, denseBudget int) TurnIndex {
	n := u.n1
	// The succinct tier packs turn values into nibbles, so topologies deeper
	// than 15 levels (none the paper considers) stay on the dense table.
	if denseBudget <= 0 || n*n <= denseBudget || len(u.cover)-1 > maxSuccinctTurn {
		return NewMinTurnIndex(u)
	}
	return NewSuccinctTurnIndex(u)
}

// MinTurnIndex is the dense TurnIndex tier: one byte per ordered leaf pair
// (N1² bytes), O(1) lookups. turnUnreachable marks pairs with no up/down
// path (possible under faults or sub-threshold radices).
type MinTurnIndex struct {
	n           int
	turns       []uint8
	unreachable int64 // ordered pairs without a path, counted at build
}

// turnUnreachable is the sentinel for leaf pairs without an up/down path.
// Level counts are tiny (the paper's networks have l <= 5), so uint8 is
// ample.
const turnUnreachable = 0xff

// NewMinTurnIndex precomputes the minimal turn level for every ordered leaf
// pair of u's topology from its cover sets. Building is O(l · N1^2 / 64)
// word operations; lookups afterwards are O(1).
func NewMinTurnIndex(u *UpDown) *MinTurnIndex {
	n := u.n1
	ix := &MinTurnIndex{n: n, turns: make([]uint8, n*n)}
	for i := range ix.turns {
		ix.turns[i] = turnUnreachable
	}
	for src := 0; src < n; src++ {
		row := ix.turns[src*n : (src+1)*n]
		row[src] = 0
		filled := 1
		s := u.c.SwitchID(1, src)
		for r := 1; r < len(u.cover) && r < turnUnreachable && filled < n; r++ {
			cov := u.cover[r][s]
			if cov == nil {
				continue
			}
			rr := uint8(r)
			cov.Runs(func(lo, hi int) bool {
				for dst := lo; dst < hi; dst++ {
					if row[dst] == turnUnreachable {
						row[dst] = rr
						filled++
					}
				}
				return true
			})
		}
		ix.unreachable += int64(n - filled)
	}
	return ix
}

// MinTurn returns the minimal number of up hops of a shortest up/down path
// from leaf index src to leaf index dst, or -1 when no up/down path exists.
// It is the O(1) equivalent of (*UpDown).MinTurn.
func (ix *MinTurnIndex) MinTurn(src, dst int) int {
	t := ix.turns[src*ix.n+dst]
	if t == turnUnreachable {
		return -1
	}
	return int(t)
}

// Leaves returns the number of leaf switches the index covers.
func (ix *MinTurnIndex) Leaves() int { return ix.n }

// SizeBytes returns the memory footprint of the turn table.
func (ix *MinTurnIndex) SizeBytes() int { return len(ix.turns) }

// Routable reports whether every ordered leaf pair has an up/down path,
// equivalent to (*UpDown).Routable but precomputed at build time.
func (ix *MinTurnIndex) Routable() bool { return ix.unreachable == 0 }

// UnreachablePairs returns the number of ordered leaf pairs without an
// up/down path, counted once during construction.
func (ix *MinTurnIndex) UnreachablePairs() int64 { return ix.unreachable }

// Tier names the dense implementation.
func (ix *MinTurnIndex) Tier() string { return "dense" }
