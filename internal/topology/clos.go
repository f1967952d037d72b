// Package topology provides the folded Clos network representation shared by
// every indirect topology in this repository (CFT, OFT, RFC) together with
// the deterministic baseline builders the paper compares against: the
// R-commodity fat-tree (CFT), the k-ary l-tree, the orthogonal fat-tree
// (OFT) and the random regular network (RRN / Jellyfish).
package topology

import (
	"fmt"
	"slices"

	"rfclos/internal/graph"
)

// Clos is an l-level folded Clos network per Definition 3.1 of the paper:
// switches are arranged in levels 1..l; level-1 ("leaf") switches attach
// compute nodes; level-i switches connect downward to level i-1 and upward
// to level i+1; level-l ("root") switches connect only downward.
//
// Switches carry global ids: level 1 occupies [0, N_1), level 2 the next
// N_2 ids, and so on. Terminals (compute nodes) are implicit: terminal t
// attaches to leaf switch t / TermsPerLeaf.
//
// Adjacency lives in the CSR level store defined in csr.go: per level and
// direction one immutable offsets + neighbours block, sealed by the
// builders through LevelEmitter, with AddLink/RemoveLink churn layered in a
// per-switch overlay on top.
type Clos struct {
	// Radix is the nominal switch radix R (number of ports). Builders keep
	// every switch within this budget; Validate checks it.
	Radix int
	// TermsPerLeaf is the number of compute nodes per leaf switch.
	TermsPerLeaf int

	levelSize []int   // switch count per level, index 0 = level 1 (leaves)
	offset    []int32 // offset[i] = global id of first switch at level i+1
	// up[i] / down[i] are the sealed CSR blocks of level i+1's up- and
	// down-links. down[0] and up[l-1] stay empty: leaves have no down-links
	// and roots no up-links. Only LevelEmitter.Seal writes them; a sealed
	// block is never written again, so Clone shares it.
	up   []csrLevel
	down []csrLevel
	// ovl overrides the CSR rows of switches touched by AddLink/RemoveLink;
	// nil until the first mutation, and never reset once created. Every
	// post-seal link change lands here, so ovl == nil means the sealed CSR
	// is the whole adjacency.
	ovl *overlay
	// wires counts inter-switch links: Seal adds each level pair's links,
	// AddLink/RemoveLink adjust it by one.
	wires int
	// sink, when set, observes level pairs as builders seal them.
	sink LevelSink
	// leafRange, when non-nil, records for every switch s the contiguous
	// descendant-leaf interval [leafRange[2s], leafRange[2s+1]) of the
	// sealed CSR. Builders whose wiring makes every descendant set
	// contiguous (the XGFT family) install it once via setLeafRanges and
	// nothing writes it afterwards, so Clone shares it. LeafRange answers
	// only while ovl is nil: link churn changes descendant sets, and all
	// churn lives in the overlay. Routing builds descendant sets directly
	// from these intervals instead of unioning children.
	leafRange []int32
}

// NewEmpty creates a Clos with the given per-level switch counts and no
// inter-level links. Builders wire it either level pair by level pair via
// WireLevel, or link by link via AddLink; the caller is responsible for a
// pattern that Validate accepts.
func NewEmpty(levelSize []int, termsPerLeaf, radix int) (*Clos, error) {
	if len(levelSize) < 2 {
		return nil, fmt.Errorf("topology: need at least 2 levels, got %d", len(levelSize))
	}
	total := 0
	offset := make([]int32, len(levelSize))
	for i, n := range levelSize {
		if n <= 0 {
			return nil, fmt.Errorf("topology: level %d has non-positive size %d", i+1, n)
		}
		offset[i] = int32(total)
		total += n
	}
	if termsPerLeaf <= 0 {
		return nil, fmt.Errorf("topology: non-positive terminals per leaf %d", termsPerLeaf)
	}
	return &Clos{
		Radix:        radix,
		TermsPerLeaf: termsPerLeaf,
		levelSize:    append([]int(nil), levelSize...),
		offset:       offset,
		up:           make([]csrLevel, len(levelSize)),
		down:         make([]csrLevel, len(levelSize)),
	}, nil
}

// Levels returns l, the number of switch levels.
func (c *Clos) Levels() int { return len(c.levelSize) }

// LevelSize returns N_{level}, for level in [1, l].
func (c *Clos) LevelSize(level int) int { return c.levelSize[level-1] }

// NumSwitches returns the total switch count across all levels.
func (c *Clos) NumSwitches() int {
	last := len(c.levelSize) - 1
	return int(c.offset[last]) + c.levelSize[last]
}

// Terminals returns T, the total number of compute nodes.
func (c *Clos) Terminals() int { return c.levelSize[0] * c.TermsPerLeaf }

// SwitchID maps (level, index-within-level) to a global switch id.
func (c *Clos) SwitchID(level, idx int) int32 {
	return c.offset[level-1] + int32(idx)
}

// LevelOf returns the level (1-based) of global switch id s.
func (c *Clos) LevelOf(s int32) int {
	for i := len(c.offset) - 1; i >= 0; i-- {
		if s >= c.offset[i] {
			return i + 1
		}
	}
	panic(fmt.Sprintf("topology: switch id %d out of range", s))
}

// IndexInLevel returns s's index within its level.
func (c *Clos) IndexInLevel(s int32) int {
	return int(s - c.offset[c.LevelOf(s)-1])
}

// LeafOfTerminal returns the leaf switch id that terminal t attaches to.
func (c *Clos) LeafOfTerminal(t int) int32 { return int32(t / c.TermsPerLeaf) }

// Up returns the up-neighbour switch ids of s (owned by the Clos).
func (c *Clos) Up(s int32) []int32 {
	lev := c.LevelOf(s)
	return c.upAt(lev, int(s-c.offset[lev-1]))
}

// Down returns the down-neighbour switch ids of s (owned by the Clos).
func (c *Clos) Down(s int32) []int32 {
	lev := c.LevelOf(s)
	return c.downAt(lev, int(s-c.offset[lev-1]))
}

// setLeafRanges installs builder-computed contiguous descendant leaf
// ranges (see the leafRange field). Builders call it once; XGFT declares
// the ranges before wiring so level sinks can use them mid-build.
func (c *Clos) setLeafRanges(r []int32) { c.leafRange = r }

// LeafRange returns the contiguous descendant leaf interval [lo, hi) of
// switch s when the builder declared one and no link has been added or
// removed since (the overlay does not exist yet); ok is false otherwise.
func (c *Clos) LeafRange(s int32) (lo, hi int, ok bool) {
	if c.leafRange == nil || c.ovl != nil {
		return 0, 0, false
	}
	return int(c.leafRange[2*s]), int(c.leafRange[2*s+1]), true
}

// AddLink wires switch a at some level i to switch b at level i+1. Both are
// global ids; the call panics if they are not on adjacent levels. The link
// lands in the overlay, leaving sealed CSR blocks untouched.
func (c *Clos) AddLink(a, b int32) {
	la, lb := c.LevelOf(a), c.LevelOf(b)
	if lb != la+1 {
		panic(fmt.Sprintf("topology: AddLink(%d@L%d, %d@L%d): not adjacent levels", a, la, b, lb))
	}
	c.touchUp(a, la)
	c.touchDown(b, lb)
	c.ovl.up[a] = append(c.ovl.up[a], b)
	c.ovl.down[b] = append(c.ovl.down[b], a)
	c.wires++
}

// RemoveLink deletes one a—b link (a at the lower level). It reports whether
// a link was removed. Used by the fault-injection experiments. Each list's
// last entry moves into the removed slot and the list is truncated, so
// the other neighbours keep their positions apart from that one move.
func (c *Clos) RemoveLink(a, b int32) bool {
	if !slices.Contains(c.Up(a), b) {
		return false
	}
	la := c.LevelOf(a)
	c.touchUp(a, la)
	c.touchDown(b, la+1)
	removeOne(c.ovl.up, a, b)
	if !removeOne(c.ovl.down, b, a) {
		panic("topology: asymmetric link state")
	}
	c.wires--
	return true
}

// removeOne swap-removes v from m[s], reporting whether it was present.
func removeOne(m map[int32][]int32, s, v int32) bool {
	l := m[s]
	for i, w := range l {
		if w == v {
			l[i] = l[len(l)-1]
			m[s] = l[:len(l)-1]
			return true
		}
	}
	return false
}

// Link is a directed-by-level link: A is at level i, B at level i+1.
type Link struct{ A, B int32 }

// Links returns every inter-switch link exactly once, materialised from
// EdgeSeq in the same order. Prefer EdgeSeq/LinkSeq when the caller only
// iterates: this allocates the full edge slice.
func (c *Clos) Links() []Link {
	out := make([]Link, 0, c.Wires())
	for l := range c.EdgeSeq() {
		out = append(out, l)
	}
	return out
}

// Wires returns the number of inter-switch links (network wires, excluding
// terminal attachments), matching the paper's cost accounting in §5.
func (c *Clos) Wires() int { return c.wires }

// NetworkPorts returns the number of switch ports used by inter-switch
// links (twice Wires).
func (c *Clos) NetworkPorts() int { return 2 * c.Wires() }

// TotalPorts counts every switch port in use: network ports plus
// terminal-facing ports. Figure 7 plots this as the raw cost measure.
func (c *Clos) TotalPorts() int { return c.NetworkPorts() + c.Terminals() }

// Clone returns a deep copy (used by destructive fault sweeps). The sealed
// CSR blocks and the leaf-range table are immutable and shared with the
// clone — only the overlay is copied — so cloning a million-switch build
// costs bytes proportional to its fault churn, not its size.
func (c *Clos) Clone() *Clos {
	cp := &Clos{
		Radix:        c.Radix,
		TermsPerLeaf: c.TermsPerLeaf,
		levelSize:    append([]int(nil), c.levelSize...),
		offset:       append([]int32(nil), c.offset...),
		up:           slices.Clone(c.up),
		down:         slices.Clone(c.down),
		wires:        c.wires,
		leafRange:    c.leafRange,
	}
	if c.ovl != nil {
		cp.ovl = c.ovl.clone()
	}
	return cp
}

// SwitchGraph returns the undirected switch-to-switch graph, the object the
// disconnection experiments (Table 3) and diameter checks operate on.
func (c *Clos) SwitchGraph() *graph.Graph {
	g := graph.New(c.NumSwitches())
	for l := range c.EdgeSeq() {
		g.AddEdge(int(l.A), int(l.B))
	}
	return g
}

// Validate checks structural sanity: links only between adjacent levels
// (guaranteed by AddLink and the emitters), no switch exceeding the radix,
// every switch connected on its mandatory sides, and no duplicate parallel
// links.
func (c *Clos) Validate() error {
	l := c.Levels()
	for s := int32(0); s < int32(c.NumSwitches()); s++ {
		lev := c.LevelOf(s)
		up, down := c.Up(s), c.Down(s)
		ports := len(up) + len(down)
		if lev == 1 {
			ports += c.TermsPerLeaf
		}
		if c.Radix > 0 && ports > c.Radix {
			return fmt.Errorf("topology: switch %d (level %d) uses %d ports > radix %d", s, lev, ports, c.Radix)
		}
		if lev < l && len(up) == 0 {
			return fmt.Errorf("topology: switch %d (level %d) has no up-links", s, lev)
		}
		if lev > 1 && len(down) == 0 {
			return fmt.Errorf("topology: switch %d (level %d) has no down-links", s, lev)
		}
		if dup := findDup(up); dup >= 0 {
			return fmt.Errorf("topology: switch %d has parallel up-links to %d", s, dup)
		}
	}
	return nil
}

// ValidateRadixRegular additionally enforces the paper's radix-regular
// folded Clos shape: every level-i switch (i < l) has exactly R/2 up-links
// and R/2 down-links (terminals count as down-links at level 1), and root
// switches have up to R down-links.
func (c *Clos) ValidateRadixRegular() error {
	if err := c.Validate(); err != nil {
		return err
	}
	half := c.Radix / 2
	l := c.Levels()
	for s := int32(0); s < int32(c.NumSwitches()); s++ {
		lev := c.LevelOf(s)
		up, down := c.Up(s), c.Down(s)
		switch {
		case lev == 1:
			if c.TermsPerLeaf != half {
				return fmt.Errorf("topology: leaf has %d terminals, want R/2 = %d", c.TermsPerLeaf, half)
			}
			if len(up) != half {
				return fmt.Errorf("topology: leaf %d has %d up-links, want %d", s, len(up), half)
			}
		case lev < l:
			if len(up) != half || len(down) != half {
				return fmt.Errorf("topology: switch %d (level %d) has %d up / %d down, want %d/%d",
					s, lev, len(up), len(down), half, half)
			}
		default:
			if len(down) > c.Radix {
				return fmt.Errorf("topology: root %d has %d down-links > radix %d", s, len(down), c.Radix)
			}
		}
	}
	return nil
}

func findDup(list []int32) int32 {
	seen := make(map[int32]struct{}, len(list))
	for _, v := range list {
		if _, ok := seen[v]; ok {
			return v
		}
		seen[v] = struct{}{}
	}
	return -1
}

// String summarises the network.
func (c *Clos) String() string {
	return fmt.Sprintf("folded Clos: R=%d levels=%d sizes=%v terminals=%d wires=%d",
		c.Radix, c.Levels(), c.levelSize, c.Terminals(), c.Wires())
}
