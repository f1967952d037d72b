package routing

import "rfclos/internal/topology"

// RebuildStream builds up/down routing state incrementally while a builder
// is still wiring the topology. It implements topology.LevelSink: as each
// level pair seals into the CSR store, the descendant (cover_0) sets of the
// newly-finalised level are computed and compressed immediately, so the
// wiring scratch of level l+1 and the desc construction of level l overlap
// instead of the whole graph and the whole plain-bitset state being
// resident together. The cover_r families (r >= 1) need the complete
// up-wiring and are computed in Finish.
//
// Usage:
//
//	rs := routing.NewRebuildStream()
//	c, err := topology.NewXGFTStream(m, w, radix, rs)
//	ud := rs.Finish(c)
//
// The result is identical to routing.New(c) on the finished topology — the
// equivalence test in stream_test.go pins it — construction just peaks
// lower and earlier.
type RebuildStream struct {
	c    *topology.Clos
	n1   int
	bld  *leafSetBuilder
	desc []LeafSet
	// done is the highest level whose desc sets are computed; levels seal
	// bottom-up in every builder, so done advances 1, 2, ..., l.
	done int
}

// NewRebuildStream returns a sink ready to attach to a streaming builder.
func NewRebuildStream() *RebuildStream { return &RebuildStream{} }

func (rs *RebuildStream) init(c *topology.Clos) {
	if rs.c != nil {
		return
	}
	rs.c = c
	rs.n1 = c.LevelSize(1)
	rs.bld = newLeafSetBuilder(rs.n1)
	rs.desc = make([]LeafSet, c.NumSwitches())
	for i := 0; i < rs.n1; i++ {
		rs.desc[c.SwitchID(1, i)] = newSingletonLeafSet(rs.n1, i)
	}
	rs.done = 1
}

// LevelSealed consumes one sealed level pair: the down-links of level+1 are
// now final, so its desc sets are computable. Out-of-order seals are
// tolerated by deferring to Finish.
func (rs *RebuildStream) LevelSealed(c *topology.Clos, level int) {
	rs.init(c)
	if level == rs.done && rs.done < c.Levels() {
		rs.descLevel(rs.done + 1)
		rs.done++
	}
}

// descLevel computes the descendant sets of one level from the level below,
// taking the builder-declared interval fast path when the topology carries
// leaf ranges (the XGFT family declares them before wiring, so the streamed
// build uses them too).
func (rs *RebuildStream) descLevel(lev int) {
	c := rs.c
	for i := 0; i < c.LevelSize(lev); i++ {
		s := c.SwitchID(lev, i)
		if lo, hi, ok := c.LeafRange(s); ok {
			rs.desc[s] = leafSetFromRange(rs.n1, lo, hi)
			continue
		}
		rs.bld.reset()
		for _, ch := range c.Down(s) {
			rs.bld.add(rs.desc[ch])
		}
		rs.desc[s] = rs.bld.finish()
	}
}

// Finish completes the routing state once the builder returns: any desc
// levels not yet streamed are caught up, then the cover_r families are
// built over the full up-wiring. c must be the topology the sink observed
// (or, for a sink never attached, any fully-wired topology).
func (rs *RebuildStream) Finish(c *topology.Clos) *UpDown {
	rs.init(c)
	for rs.done < c.Levels() {
		rs.descLevel(rs.done + 1)
		rs.done++
	}
	u := &UpDown{c: c, n1: rs.n1}
	u.cover = make([][]LeafSet, c.Levels())
	u.cover[0] = rs.desc
	u.finishCovers(rs.bld)
	u.walkFloor = walkFloorOf(c)
	return u
}
