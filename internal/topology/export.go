package topology

import (
	"bufio"
	"fmt"
	"io"
	"iter"
	"strconv"
)

// This file is the single topology export encoder shared by the offline
// tooling (cmd/rfcgen -format) and the serving layer's export endpoint
// (internal/service, GET /v1/topology/{key}/export): both call Export /
// ExportRRN, so a topology exported online is byte-identical to the same
// topology exported offline. Output is streamed edge by edge from the
// topology's iterators, so memory stays constant regardless of size.

// ExportFormats lists the formats Export and ExportRRN accept.
func ExportFormats() []string { return []string{"json", "dot", "edges"} }

// Export writes c in the named format:
//
//   - "json": {"radix","terms_per_leaf","level_sizes","links"}, each link
//     a [lower, upper] global switch id pair. The bytes equal
//     encoding/json's compact encoding of that object, with "links":[]
//     rather than null for an edgeless network.
//   - "dot": Graphviz, one rank per level (Figures 1, 2 and 4 of the paper
//     render directly from it).
//   - "edges": one "a b" line per link, lower id first.
func Export(c *Clos, format string, w io.Writer) error {
	head := fmt.Appendf(nil, `"radix":%d,"terms_per_leaf":%d,"level_sizes":[`, c.Radix, c.TermsPerLeaf)
	for i, n := range c.levelSize {
		if i > 0 {
			head = append(head, ',')
		}
		head = strconv.AppendInt(head, int64(n), 10)
	}
	head = append(head, ']')
	return export(format, w, exportParts{
		jsonHead: head,
		edgesKey: "links",
		dotName:  "clos",
		dotHeader: func(bw *bufio.Writer) {
			bw.WriteString("  rankdir=BT;\n  node [shape=box, fontsize=10];\n")
			for lev := 1; lev <= c.Levels(); lev++ {
				bw.WriteString("  { rank=same;")
				for i := 0; i < c.LevelSize(lev); i++ {
					fmt.Fprintf(bw, " s%d;", c.SwitchID(lev, i))
				}
				bw.WriteString(" }\n")
			}
		},
		edges: func(yield func(a, b int32) bool) {
			for l := range c.EdgeSeq() {
				if !yield(l.A, l.B) {
					return
				}
			}
		},
	})
}

// ExportRRN writes r in the named format, mirroring Export for the direct
// random topology. The JSON schema is {"n","degree","terms_per_switch",
// "edges"}, each undirected edge listed once in the canonical Edges order
// ("edges":[] for an edgeless network).
func ExportRRN(r *RRN, format string, w io.Writer) error {
	return export(format, w, exportParts{
		jsonHead: fmt.Appendf(nil, `"n":%d,"degree":%d,"terms_per_switch":%d`, r.N(), r.Degree, r.TermsPerSwitch),
		edgesKey: "edges",
		dotName:  "rrn",
		dotHeader: func(bw *bufio.Writer) {
			bw.WriteString("  node [shape=circle, fontsize=10];\n")
		},
		edges: func(yield func(a, b int32) bool) {
			for e := range r.G.EdgeSeq() {
				if !yield(e.U, e.V) {
					return
				}
			}
		},
	})
}

// exportParts is what one topology kind contributes to the shared encoder.
type exportParts struct {
	// jsonHead holds the JSON object's members before the edge array,
	// without braces; edgesKey names that array.
	jsonHead []byte
	edgesKey string
	// dotName is the DOT graph name; dotHeader writes the lines between
	// the graph's opening brace and its first edge.
	dotName   string
	dotHeader func(bw *bufio.Writer)
	// edges yields every undirected link once, in canonical order.
	edges iter.Seq2[int32, int32]
}

// export streams one topology in the named format.
func export(format string, w io.Writer, p exportParts) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf [40]byte
	switch format {
	case "json":
		bw.WriteByte('{')
		bw.Write(p.jsonHead)
		bw.WriteString(`,"` + p.edgesKey + `":[`)
		first := true
		for a, b := range p.edges {
			out := buf[:0]
			if !first {
				out = append(out, ',')
			}
			first = false
			out = append(out, '[')
			out = strconv.AppendInt(out, int64(a), 10)
			out = append(out, ',')
			out = strconv.AppendInt(out, int64(b), 10)
			out = append(out, ']')
			bw.Write(out)
		}
		bw.WriteString("]}\n")
	case "dot":
		bw.WriteString("graph " + p.dotName + " {\n")
		p.dotHeader(bw)
		for a, b := range p.edges {
			out := append(buf[:0], ' ', ' ', 's')
			out = strconv.AppendInt(out, int64(a), 10)
			out = append(out, ' ', '-', '-', ' ', 's')
			out = strconv.AppendInt(out, int64(b), 10)
			out = append(out, ';', '\n')
			bw.Write(out)
		}
		bw.WriteString("}\n")
	case "edges":
		for a, b := range p.edges {
			out := strconv.AppendInt(buf[:0], int64(a), 10)
			out = append(out, ' ')
			out = strconv.AppendInt(out, int64(b), 10)
			out = append(out, '\n')
			bw.Write(out)
		}
	default:
		return fmt.Errorf("topology: unknown export format %q (want json, dot or edges)", format)
	}
	return bw.Flush()
}
