package flow

// linkHeap is an indexed binary min-heap of link ids keyed by
// (level[id], id): the water-filler's queue of links by saturation level.
// Ties break by link id, so the order is total and the solve
// deterministic. The level slice belongs to the solver; after changing a
// queued link's level, call fix.
type linkHeap struct {
	ids   []int32   // heap-ordered link ids
	pos   []int32   // pos[l] is l's index in ids, or -1 when l is absent
	level []float64 // the keys
}

// newLinkHeap returns an empty heap over the links of level.
func newLinkHeap(level []float64) *linkHeap {
	h := &linkHeap{ids: make([]int32, 0, len(level)), pos: make([]int32, len(level)), level: level}
	for l := range h.pos {
		h.pos[l] = -1
	}
	return h
}

func (h *linkHeap) len() int         { return len(h.ids) }
func (h *linkHeap) top() int32       { return h.ids[0] }
func (h *linkHeap) has(l int32) bool { return h.pos[l] >= 0 }

// add appends l without restoring heap order; call init after the last add.
func (h *linkHeap) add(l int32) {
	h.pos[l] = int32(len(h.ids))
	h.ids = append(h.ids, l)
}

// init establishes heap order in O(len).
func (h *linkHeap) init() {
	for i := len(h.ids)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// push inserts l.
func (h *linkHeap) push(l int32) {
	h.add(l)
	h.up(len(h.ids) - 1)
}

// pop removes and returns the least link.
func (h *linkHeap) pop() int32 {
	l := h.ids[0]
	h.remove(l)
	return l
}

// remove deletes l, which must be present.
func (h *linkHeap) remove(l int32) {
	i, last := int(h.pos[l]), len(h.ids)-1
	if i != last {
		h.swap(i, last)
	}
	h.ids = h.ids[:last]
	h.pos[l] = -1
	if i != last {
		h.fixAt(i)
	}
}

// fix restores heap order after l's level changed.
func (h *linkHeap) fix(l int32) { h.fixAt(int(h.pos[l])) }

func (h *linkHeap) fixAt(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *linkHeap) less(i, j int) bool {
	a, b := h.ids[i], h.ids[j]
	return h.level[a] < h.level[b] || (h.level[a] == h.level[b] && a < b)
}

func (h *linkHeap) swap(i, j int) {
	h.ids[i], h.ids[j] = h.ids[j], h.ids[i]
	h.pos[h.ids[i]] = int32(i)
	h.pos[h.ids[j]] = int32(j)
}

func (h *linkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts i toward the leaves and reports whether it moved.
func (h *linkHeap) down(i int) bool {
	start, n := i, len(h.ids)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h.swap(i, c)
		i = c
	}
	return i > start
}
