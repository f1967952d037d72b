package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteJSON serialises the network, streaming links from EdgeSeq so memory
// stays constant regardless of topology size. The schema is
// {"radix","terms_per_leaf","level_sizes","links"}, each link a
// [lower, upper] global switch id pair; it is stable for storage and
// interchange. Output is byte-identical to encoding/json's compact
// encoding of that object (with "links":[] rather than null for the
// degenerate edgeless case), as TestStreamedExportGoldens pins.
func (c *Clos) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 32)
	bw.WriteString(`{"radix":`)
	bw.Write(strconv.AppendInt(buf, int64(c.Radix), 10))
	bw.WriteString(`,"terms_per_leaf":`)
	bw.Write(strconv.AppendInt(buf, int64(c.TermsPerLeaf), 10))
	bw.WriteString(`,"level_sizes":[`)
	for i, n := range c.levelSize {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(strconv.AppendInt(buf, int64(n), 10))
	}
	bw.WriteString(`],"links":[`)
	first := true
	for l := range c.EdgeSeq() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		buf = append(buf[:0], '[')
		buf = strconv.AppendInt(buf, int64(l.A), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(l.B), 10)
		buf = append(buf, ']')
		bw.Write(buf)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteDOT emits the network in Graphviz DOT format, one rank per level,
// for visual inspection of small instances (Figures 1, 2 and 4 of the
// paper render directly from this).
func (c *Clos) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph clos {")
	fmt.Fprintln(bw, "  rankdir=BT;")
	fmt.Fprintln(bw, "  node [shape=box, fontsize=10];")
	for lev := 1; lev <= c.Levels(); lev++ {
		fmt.Fprintf(bw, "  { rank=same;")
		for i := 0; i < c.LevelSize(lev); i++ {
			fmt.Fprintf(bw, " s%d;", c.SwitchID(lev, i))
		}
		fmt.Fprintln(bw, " }")
	}
	for l := range c.EdgeSeq() {
		writeDOTEdge(bw, int64(l.A), int64(l.B))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteEdgeList emits one "a b" line per link (lower id first), a format
// digestible by standard graph tooling, streamed from EdgeSeq.
func (c *Clos) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for l := range c.EdgeSeq() {
		writeEdgeLine(bw, int64(l.A), int64(l.B))
	}
	return bw.Flush()
}

// writeEdgeLine appends "a b\n" (the fmt.Fprintln(w, a, b) encoding) without
// fmt's reflection cost — edge lists dominate large exports.
func writeEdgeLine(bw *bufio.Writer, a, b int64) {
	var buf [24]byte
	out := strconv.AppendInt(buf[:0], a, 10)
	out = append(out, ' ')
	out = strconv.AppendInt(out, b, 10)
	out = append(out, '\n')
	bw.Write(out)
}

// writeDOTEdge appends "  sA -- sB;\n", the per-link line of the DOT
// encoders.
func writeDOTEdge(bw *bufio.Writer, a, b int64) {
	var buf [32]byte
	out := append(buf[:0], ' ', ' ', 's')
	out = strconv.AppendInt(out, a, 10)
	out = append(out, ' ', '-', '-', ' ', 's')
	out = strconv.AppendInt(out, b, 10)
	out = append(out, ';', '\n')
	bw.Write(out)
}
