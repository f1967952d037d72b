package topology

import "iter"

// This file is the iteration layer of Clos: links stream level by level
// straight out of the CSR store without materialising edge slices. The
// export encoder (export.go), which the service export endpoint and
// cmd/rfcgen both call, consumes these sequences, so multi-gigabyte
// topologies export in constant memory.

// EdgeSeq yields every inter-switch link exactly once, in the canonical
// order Links returns: ascending lower-endpoint switch id, up-neighbours in
// wiring order. Encoders stream from this sequence; its order is part of
// the export formats' byte-identity contract.
func (c *Clos) EdgeSeq() iter.Seq[Link] {
	return func(yield func(Link) bool) {
		for level := 1; level < c.Levels(); level++ {
			if !c.yieldLevel(level, yield) {
				return
			}
		}
	}
}

// LinkSeq yields the links whose lower endpoint sits at the given level
// (1 <= level < l), in EdgeSeq order restricted to that level. It lets
// level-structured consumers walk one stage at a time without touching the
// rest of the network.
func (c *Clos) LinkSeq(level int) iter.Seq[Link] {
	return func(yield func(Link) bool) {
		c.yieldLevel(level, yield)
	}
}

// yieldLevel streams the up-links of one level in switch-id order,
// overlay-aware. It reports whether iteration ran to completion.
//
// A churn-free topology (no overlay) streams straight off the sealed CSR
// block — one pass over the offsets and flat neighbour arrays, no per-switch
// row lookup — which is the common case for every export of an unfaulted
// build. Any overlay falls back to the per-switch path, whose upAt calls
// merge the materialised rows in. Both paths yield identical links in
// identical order: CSR rows and overlay lists preserve wiring order.
func (c *Clos) yieldLevel(level int, yield func(Link) bool) bool {
	if c.ovl == nil {
		cl := c.up[level-1]
		if cl.offsets == nil {
			return true // level never sealed and never mutated: no links
		}
		lo := c.offset[level-1]
		for i := 0; i < c.levelSize[level-1]; i++ {
			s := lo + int32(i)
			for _, b := range cl.neigh[cl.offsets[i]:cl.offsets[i+1]] {
				if !yield(Link{s, b}) {
					return false
				}
			}
		}
		return true
	}
	lo := c.offset[level-1]
	for i := 0; i < c.levelSize[level-1]; i++ {
		s := lo + int32(i)
		for _, b := range c.upAt(level, i) {
			if !yield(Link{s, b}) {
				return false
			}
		}
	}
	return true
}
