package topology

import (
	"fmt"
	"slices"
)

// This file is the adjacency storage of Clos: an immutable per-level CSR
// (compressed sparse row) store plus a small mutable overlay.
//
// The CSR base holds, for every level and direction, one offsets array and
// one flat neighbour array — no per-switch slice headers, so a million-
// switch fabric costs 8 bytes per wire plus 8 bytes per switch instead of
// the 48 bytes per switch that [][]int32 slice headers would add on top of
// the same wire data. Builders fill the base one level pair at a time
// through LevelEmitter and never touch it again: sealed blocks are
// immutable, which is what lets Clone share them between the original and
// every fault-sweep copy.
//
// All later mutation (AddLink/RemoveLink fault churn and expansion splices)
// goes through the overlay: the first touch of a switch materialises its
// effective adjacency list into a per-switch slice owned by the overlay.
// AddLink appends to both endpoints' lists; RemoveLink moves the last
// entry of each list into the removed slot and truncates. Iteration order
// — and therefore rng consumption and export bytes — follows from those
// two rules and the sealed order alone. Builder-declared descendant
// intervals (leafRange) describe the sealed base, so they stay true exactly
// as long as no overlay exists, and LeafRange answers from them only then.

// csrLevel is one direction of one level's adjacency: the neighbour lists
// of every switch on the level, concatenated, with offsets[i] marking where
// switch i's list starts. offsets == nil means the level has no sealed
// block (an AddLink-built topology, or a level not yet wired).
type csrLevel struct {
	offsets []int32 // len = level size + 1
	neigh   []int32
}

// row returns switch i's neighbour list within the level (read-only).
func (cl *csrLevel) row(i int) []int32 {
	if cl.offsets == nil {
		return nil
	}
	return cl.neigh[cl.offsets[i]:cl.offsets[i+1]]
}

// bytes returns the resident size of the block's arrays.
func (cl *csrLevel) bytes() int {
	return 4 * (len(cl.offsets) + len(cl.neigh))
}

// overlay holds the materialised adjacency lists of switches touched by
// AddLink/RemoveLink since the base was sealed. Presence in the map is what
// overrides the CSR row (an entry may be an empty list); the maps are only
// ever read by key — never ranged in an order-sensitive way — so the store
// stays deterministic.
type overlay struct {
	up   map[int32][]int32
	down map[int32][]int32
}

func newOverlay() *overlay {
	return &overlay{up: map[int32][]int32{}, down: map[int32][]int32{}}
}

// clone deep-copies the overlay: the per-switch lists are mutated in place
// by RemoveLink's swap-remove, so a clone must own its backing arrays.
func (o *overlay) clone() *overlay {
	cp := &overlay{
		up:   make(map[int32][]int32, len(o.up)),
		down: make(map[int32][]int32, len(o.down)),
	}
	for s, l := range o.up {
		cp.up[s] = slices.Clone(l)
	}
	for s, l := range o.down {
		cp.down[s] = slices.Clone(l)
	}
	return cp
}

// bytes estimates the overlay's resident size: map bucket overhead plus the
// materialised lists.
func (o *overlay) bytes() int {
	const entryOverhead = 48 // map bucket share + slice header
	n := entryOverhead * (len(o.up) + len(o.down))
	for _, l := range o.up {
		n += 4 * cap(l)
	}
	for _, l := range o.down {
		n += 4 * cap(l)
	}
	return n
}

// LevelSink receives sealed level pairs during construction. Builders that
// accept a sink call it synchronously from LevelEmitter.Seal, after the
// level's CSR blocks are installed: at that point the down-links of level+1
// are final, so a consumer (routing.RebuildStream) can fold the level into
// its own state while the builder moves on — wiring and cover construction
// pipeline instead of running back-to-back.
type LevelSink interface {
	// LevelSealed is called once per wired level pair, with the lower level
	// (1-based). Levels seal bottom-up in every builder in this repository.
	LevelSealed(c *Clos, level int)
}

// LevelEmitter accumulates the wiring of one adjacent level pair and seals
// it into the immutable CSR base. Links may be emitted in any order (each
// builder uses its natural generation order); Seal groups them per switch
// with a stable counting sort, so a switch's neighbour order is its
// emission order, the order AddLink calls in the same sequence would give.
// The emission stream is the only construction scratch and is released by
// Seal, so peak wiring memory beyond the final store is one level pair, not
// the whole fabric.
type LevelEmitter struct {
	c                  *Clos
	level              int
	aLo, aHi, bLo, bHi int32
	ab                 []int32 // (a, b) pairs in emission order
}

// WireLevel starts wiring the level pair (level, level+1), 1 <= level < l.
// edgeHint, when positive, pre-sizes the emission buffer. Each level pair
// can be wired once, and only before any AddLink/RemoveLink mutation.
func (c *Clos) WireLevel(level, edgeHint int) *LevelEmitter {
	if level < 1 || level >= c.Levels() {
		panicf("topology: WireLevel(%d): level out of [1, %d)", level, c.Levels())
	}
	if c.up[level-1].offsets != nil {
		panicf("topology: WireLevel(%d): level pair already sealed", level)
	}
	if c.ovl != nil {
		panicf("topology: WireLevel(%d) after link mutation", level)
	}
	e := &LevelEmitter{
		c:     c,
		level: level,
		aLo:   c.offset[level-1],
		bLo:   c.offset[level],
	}
	e.aHi = e.aLo + int32(c.levelSize[level-1])
	e.bHi = e.bLo + int32(c.levelSize[level])
	if edgeHint > 0 {
		e.ab = make([]int32, 0, 2*edgeHint)
	}
	return e
}

// Link emits one a—b link, a at the emitter's level and b one level above
// (global switch ids, like AddLink).
func (e *LevelEmitter) Link(a, b int32) {
	if a < e.aLo || a >= e.aHi {
		panicf("topology: emitter level %d: switch %d not on level %d", e.level, a, e.level)
	}
	if b < e.bLo || b >= e.bHi {
		panicf("topology: emitter level %d: switch %d not on level %d", e.level, b, e.level+1)
	}
	e.ab = append(e.ab, a, b)
}

// Seal installs the level pair's CSR blocks (up-links of level, down-links
// of level+1), releases the emission scratch and notifies the topology's
// level sink, if any. The emitter must not be used afterwards.
func (e *LevelEmitter) Seal() {
	c := e.c
	c.up[e.level-1] = buildCSR(e.ab, 0, e.aLo, c.levelSize[e.level-1])
	c.down[e.level] = buildCSR(e.ab, 1, e.bLo, c.levelSize[e.level])
	c.wires += len(e.ab) / 2
	e.ab = nil
	if c.sink != nil {
		c.sink.LevelSealed(c, e.level)
	}
}

// buildCSR groups an emission stream of (a, b) pairs into a CSR block keyed
// on element `which` of each pair (0 = a, the lower level; 1 = b, the upper
// level), storing the opposite endpoint. The counting sort is stable:
// neighbour order per switch is stream order.
func buildCSR(ab []int32, which int, lo int32, n int) csrLevel {
	offsets := make([]int32, n+1)
	for i := which; i < len(ab); i += 2 {
		offsets[ab[i]-lo+1]++
	}
	for i := 1; i <= n; i++ {
		offsets[i] += offsets[i-1]
	}
	neigh := make([]int32, len(ab)/2)
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for i := 0; i+1 < len(ab); i += 2 {
		key := ab[i+which] - lo
		neigh[cursor[key]] = ab[i+1-which]
		cursor[key]++
	}
	return csrLevel{offsets: offsets, neigh: neigh}
}

// SetLevelSink attaches a sink notified as construction seals level pairs.
// Builders with streaming variants call this before wiring; it has no
// effect on topologies built via AddLink.
func (c *Clos) SetLevelSink(s LevelSink) { c.sink = s }

// ensureOverlay returns the mutable overlay, creating it on first use.
func (c *Clos) ensureOverlay() *overlay {
	if c.ovl == nil {
		c.ovl = newOverlay()
	}
	return c.ovl
}

// touchUp materialises switch s's effective up-list into the overlay (no-op
// when already materialised). lev is s's level.
func (c *Clos) touchUp(s int32, lev int) {
	ovl := c.ensureOverlay()
	if _, ok := ovl.up[s]; ok {
		return
	}
	base := c.up[lev-1].row(int(s - c.offset[lev-1]))
	ovl.up[s] = append(make([]int32, 0, len(base)+1), base...)
}

// touchDown is touchUp for the down direction.
func (c *Clos) touchDown(s int32, lev int) {
	ovl := c.ensureOverlay()
	if _, ok := ovl.down[s]; ok {
		return
	}
	base := c.down[lev-1].row(int(s - c.offset[lev-1]))
	ovl.down[s] = append(make([]int32, 0, len(base)+1), base...)
}

// upAt returns the effective up-list of the i-th switch of level lev.
func (c *Clos) upAt(lev, i int) []int32 {
	if c.ovl != nil {
		if l, ok := c.ovl.up[c.offset[lev-1]+int32(i)]; ok {
			return l
		}
	}
	return c.up[lev-1].row(i)
}

// downAt returns the effective down-list of the i-th switch of level lev.
func (c *Clos) downAt(lev, i int) []int32 {
	if c.ovl != nil {
		if l, ok := c.ovl.down[c.offset[lev-1]+int32(i)]; ok {
			return l
		}
	}
	return c.down[lev-1].row(i)
}

// StoreBytes returns the resident bytes of the adjacency store: the CSR
// base (offsets + neighbour arrays, both directions) plus the overlay's
// materialised lists and the declared leaf-range table (which stays
// resident after churn, when LeafRange no longer answers from it). This is the number
// the serving layer charges against cache budgets and exports as the
// rfcd_topology_bytes gauge.
func (c *Clos) StoreBytes() int {
	const levelHeader = 2 * 24 // two slice headers per csrLevel
	n := 0
	for i := range c.up {
		n += c.up[i].bytes() + c.down[i].bytes() + 2*levelHeader
	}
	if c.ovl != nil {
		n += c.ovl.bytes()
	}
	n += 4 * len(c.leafRange)
	return n
}

func panicf(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}
