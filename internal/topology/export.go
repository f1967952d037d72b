package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// This file is the single topology export encoder shared by the offline
// tooling (cmd/rfcgen -format) and the serving layer's export endpoint
// (internal/service, GET /v1/topology/{key}/export): both call Export /
// ExportRRN, so a topology exported online is byte-identical to the same
// topology exported offline.

// ExportFormats lists the formats Export and ExportRRN accept.
func ExportFormats() []string { return []string{"json", "dot", "edges"} }

// Export writes c in the named format: "json" (the WriteJSON adjacency
// schema), "dot" (Graphviz) or "edges" (one "a b" line per link).
func Export(c *Clos, format string, w io.Writer) error {
	switch format {
	case "json":
		return c.WriteJSON(w)
	case "dot":
		return c.WriteDOT(w)
	case "edges":
		return c.WriteEdgeList(w)
	default:
		return fmt.Errorf("topology: unknown export format %q (want json, dot or edges)", format)
	}
}

// WriteJSON serialises the network as {"n","degree","terms_per_switch",
// "edges"} with each undirected edge listed once, streamed in the
// canonical Edges order. An edgeless network emits
// "edges":[] (not null), keeping the schema's array type stable.
func (r *RRN) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 32)
	bw.WriteString(`{"n":`)
	bw.Write(strconv.AppendInt(buf, int64(r.N()), 10))
	bw.WriteString(`,"degree":`)
	bw.Write(strconv.AppendInt(buf, int64(r.Degree), 10))
	bw.WriteString(`,"terms_per_switch":`)
	bw.Write(strconv.AppendInt(buf, int64(r.TermsPerSwitch), 10))
	bw.WriteString(`,"edges":[`)
	first := true
	for e := range r.G.EdgeSeq() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
		buf = append(buf[:0], '[')
		buf = strconv.AppendInt(buf, int64(e.U), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(e.V), 10)
		buf = append(buf, ']')
		bw.Write(buf)
	}
	bw.WriteString("]}\n")
	return bw.Flush()
}

// WriteDOT emits the switch graph in Graphviz DOT format, streamed edge by
// edge.
func (r *RRN) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "graph rrn {")
	fmt.Fprintln(bw, "  node [shape=circle, fontsize=10];")
	for e := range r.G.EdgeSeq() {
		writeDOTEdge(bw, int64(e.U), int64(e.V))
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}

// WriteEdgeList emits one "u v" line per undirected edge, streamed.
func (r *RRN) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for e := range r.G.EdgeSeq() {
		writeEdgeLine(bw, int64(e.U), int64(e.V))
	}
	return bw.Flush()
}

// ExportRRN writes r in the named format, mirroring Export for the direct
// random topology.
func ExportRRN(r *RRN, format string, w io.Writer) error {
	switch format {
	case "json":
		return r.WriteJSON(w)
	case "dot":
		return r.WriteDOT(w)
	case "edges":
		return r.WriteEdgeList(w)
	default:
		return fmt.Errorf("topology: unknown export format %q (want json, dot or edges)", format)
	}
}
