package routing

// This file materialises concrete forwarding tables from the up/down
// routing state, in the form a switch implementation would hold them:
// for every (switch, destination leaf) pair, the set of output ports that
// lie on some shortest up/down path. The paper's §1/§6 simplicity argument
// for folded Clos networks — trivial deadlock-free ECMP without
// k-shortest-path recomputation — becomes quantitative here: table sizes
// and build times can be compared against the k-shortest-path state an RRN
// needs.

// PortClass identifies the port class of a forwarding entry.
type PortClass uint8

const (
	// PortUp entries forward toward the turn.
	PortUp PortClass = iota
	// PortDown entries descend toward the destination.
	PortDown
	// PortEject entries deliver to a local terminal.
	PortEject
)

// TableEntry is the forwarding row of one switch for one destination leaf.
type TableEntry struct {
	Class PortClass
	// Ports are indices into Clos.Up(s) (PortUp) or Clos.Down(s)
	// (PortDown); empty for PortEject.
	Ports []uint8
}

// ForwardingTable holds the complete ECMP forwarding state of one switch.
type ForwardingTable struct {
	Switch  int32
	Entries []TableEntry // indexed by destination leaf
}

// BuildTables materialises the forwarding tables of every switch. For a
// switch s and destination leaf d, the entry lists the down ports whose
// subtree contains d when d is below s, and otherwise the up ports that lie
// on a shortest up/down path from s's level toward a common ancestor with
// d. Leaf switches' own-leaf entries are PortEject.
//
// Memory note: the bitset ("cover") representation UpDown routes from is
// much smaller than these explicit tables; BuildTables exists for export
// to real switch configurations and for the table-size comparisons in the
// analysis package.
func (u *UpDown) BuildTables() []ForwardingTable {
	c := u.c
	n1 := u.n1
	tables := make([]ForwardingTable, c.NumSwitches())
	for s := int32(0); s < int32(c.NumSwitches()); s++ {
		lev := c.LevelOf(s)
		ft := ForwardingTable{Switch: s, Entries: make([]TableEntry, n1)}
		desc := u.cover[0]
		for d := 0; d < n1; d++ {
			if lev == 1 && int(s) == d {
				ft.Entries[d] = TableEntry{Class: PortEject}
				continue
			}
			if desc[s] != nil && desc[s].Get(d) && lev > 1 {
				// Descend: every child whose subtree holds d.
				var ports []uint8
				for i, ch := range c.Down(s) {
					if desc[ch].Get(d) {
						ports = append(ports, uint8(i))
					}
				}
				ft.Entries[d] = TableEntry{Class: PortDown, Ports: ports}
				continue
			}
			// Ascend: up ports on a shortest up/down path. The remaining
			// up-hop budget from this switch is the smallest r with
			// d ∈ cover_r(s).
			rem := -1
			for r := 1; r < len(u.cover); r++ {
				if cov := u.cover[r][s]; cov != nil && cov.Get(d) {
					rem = r
					break
				}
			}
			if rem < 0 {
				ft.Entries[d] = TableEntry{Class: PortUp} // unreachable: empty ports
				continue
			}
			var ports []uint8
			prev := u.cover[rem-1]
			for i, p := range c.Up(s) {
				if cov := prev[p]; cov != nil && cov.Get(d) {
					ports = append(ports, uint8(i))
				}
			}
			ft.Entries[d] = TableEntry{Class: PortUp, Ports: ports}
		}
		tables[s] = ft
	}
	return tables
}

// TableStats summarises forwarding state size.
type TableStats struct {
	Switches      int
	Destinations  int
	TotalEntries  int
	TotalPortRefs int // sum of ECMP fan-out across all entries
	// ApproxBytes estimates memory for the explicit tables at one byte
	// per port reference plus two bytes per entry header.
	ApproxBytes int
	// CoverBytes is the memory of the compressed cover representation
	// UpDown actually routes from, as reported by UpDown.CoverBytes (the
	// same number the serving layer charges against cache budgets).
	CoverBytes int
	// UnreachableEntries counts (switch, destination) pairs with no
	// shortest up/down port — zero on a routable network.
	UnreachableEntries int
}

// Stats computes sizes over a set of tables built by BuildTables.
func (u *UpDown) Stats(tables []ForwardingTable) TableStats {
	st := TableStats{Switches: len(tables), Destinations: u.n1}
	for _, ft := range tables {
		for _, e := range ft.Entries {
			st.TotalEntries++
			st.TotalPortRefs += len(e.Ports)
			if e.Class != PortEject && len(e.Ports) == 0 {
				st.UnreachableEntries++
			}
		}
	}
	st.ApproxBytes = st.TotalPortRefs + 2*st.TotalEntries
	st.CoverBytes = u.CoverBytes()
	return st
}
