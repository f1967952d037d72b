package flow

// linkHeap is an indexed 4-ary min-heap of kept links keyed by (level,
// link id): the water-filler's queue of links by saturation level. Ties
// break by link id, so the order is total and the solve deterministic. A
// re-key mostly sifts down, and four children per node halve the depth a
// binary heap would have.
// Each entry carries its link's level, so a comparison reads the heap
// array alone; a link's level is kept only while it is queued. The heap
// index lives in the solver's per-link state, beside the fields a re-key
// reads, so a re-key touches one record per link.
type linkHeap struct {
	e    []heapEntry // heap-ordered entries
	link []keptLink  // link[l].pos is l's index in e, or -1 when l is absent
}

// heapEntry is one queued link and its key.
type heapEntry struct {
	level float64
	id    int32
}

// keptLink is the water-filler's state of one kept link.
type keptLink struct {
	exitAt float64 // the level above which the link leaves the heap for good
	nact   int32   // the link's unfrozen flows
	pos    int32   // the link's heap index, or -1
}

// newLinkHeap returns an empty heap over the links of link, marking each
// absent.
func newLinkHeap(link []keptLink) *linkHeap {
	for l := range link {
		link[l].pos = -1
	}
	return &linkHeap{e: make([]heapEntry, 0, len(link)), link: link}
}

func (h *linkHeap) len() int { return len(h.e) }

// top returns the least entry.
func (h *linkHeap) top() heapEntry { return h.e[0] }

// add appends e without restoring heap order; call init after the last add.
func (h *linkHeap) add(e heapEntry) {
	h.link[e.id].pos = int32(len(h.e))
	h.e = append(h.e, e)
}

// init establishes heap order in O(len).
func (h *linkHeap) init() {
	for i := (len(h.e) - 2) / 4; i >= 0; i-- {
		h.down(i)
	}
}

// push inserts e.
func (h *linkHeap) push(e heapEntry) {
	h.add(e)
	h.up(len(h.e) - 1)
}

// pop removes and returns the least entry.
func (h *linkHeap) pop() heapEntry {
	e := h.e[0]
	h.remove(e.id)
	return e
}

// remove deletes l, which must be present.
func (h *linkHeap) remove(l int32) {
	i, last := int(h.link[l].pos), len(h.e)-1
	if i != last {
		h.swap(i, last)
	}
	h.e = h.e[:last]
	h.link[l].pos = -1
	if i != last {
		h.fixAt(i)
	}
}

// set changes queued link l's level and restores heap order.
func (h *linkHeap) set(l int32, level float64) {
	i := int(h.link[l].pos)
	h.e[i].level = level
	h.fixAt(i)
}

func (h *linkHeap) fixAt(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *linkHeap) less(i, j int) bool {
	a, b := h.e[i], h.e[j]
	return a.level < b.level || (a.level == b.level && a.id < b.id)
}

func (h *linkHeap) swap(i, j int) {
	h.e[i], h.e[j] = h.e[j], h.e[i]
	h.link[h.e[i].id].pos = int32(i)
	h.link[h.e[j].id].pos = int32(j)
}

func (h *linkHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 4
		if !h.less(i, p) {
			return
		}
		h.swap(i, p)
		i = p
	}
}

// down sifts i toward the leaves and reports whether it moved.
func (h *linkHeap) down(i int) bool {
	start, n := i, len(h.e)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, n); j++ {
			if h.less(j, m) {
				m = j
			}
		}
		if !h.less(m, i) {
			break
		}
		h.swap(i, m)
		i = m
	}
	return i > start
}
