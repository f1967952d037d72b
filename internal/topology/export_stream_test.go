// Streamed-export byte-identity goldens: the hand-streamed encoder in
// export.go must reproduce, byte for byte, the output of the reference
// encoders below (encoding/json over materialised edge slices). The
// reference encoders are copied here verbatim so any drift in the streaming
// path fails loudly. An external test package so RFC builds can come from
// internal/core, which imports this package.
package topology_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/rng"
	"rfclos/internal/topology"
)

// refClosJSON is the reference for Export's json format: encoding/json over the
// materialised link slice.
func refClosJSON(t *testing.T, c *topology.Clos) []byte {
	t.Helper()
	out := struct {
		Radix        int      `json:"radix"`
		TermsPerLeaf int      `json:"terms_per_leaf"`
		LevelSizes   []int    `json:"level_sizes"`
		Links        [][2]int `json:"links"`
	}{Radix: c.Radix, TermsPerLeaf: c.TermsPerLeaf, Links: [][2]int{}}
	for lev := 1; lev <= c.Levels(); lev++ {
		out.LevelSizes = append(out.LevelSizes, c.LevelSize(lev))
	}
	for _, l := range c.Links() {
		out.Links = append(out.Links, [2]int{int(l.A), int(l.B)})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refClosDOT is the reference for Export's dot format.
func refClosDOT(c *topology.Clos) []byte {
	var bw bytes.Buffer
	fmt.Fprintln(&bw, "graph clos {")
	fmt.Fprintln(&bw, "  rankdir=BT;")
	fmt.Fprintln(&bw, "  node [shape=box, fontsize=10];")
	for lev := 1; lev <= c.Levels(); lev++ {
		fmt.Fprintf(&bw, "  { rank=same;")
		for i := 0; i < c.LevelSize(lev); i++ {
			fmt.Fprintf(&bw, " s%d;", c.SwitchID(lev, i))
		}
		fmt.Fprintln(&bw, " }")
	}
	for _, l := range c.Links() {
		fmt.Fprintf(&bw, "  s%d -- s%d;\n", l.A, l.B)
	}
	fmt.Fprintln(&bw, "}")
	return bw.Bytes()
}

// refClosEdges is the reference for Export's edges format.
func refClosEdges(c *topology.Clos) []byte {
	var bw bytes.Buffer
	for _, l := range c.Links() {
		fmt.Fprintln(&bw, l.A, l.B)
	}
	return bw.Bytes()
}

// refRRNJSON is the reference for ExportRRN's json format, with "edges"
// pinned to [] rather than null in the edgeless case.
func refRRNJSON(t *testing.T, r *topology.RRN) []byte {
	t.Helper()
	out := struct {
		N              int      `json:"n"`
		Degree         int      `json:"degree"`
		TermsPerSwitch int      `json:"terms_per_switch"`
		Edges          [][2]int `json:"edges"`
	}{N: r.N(), Degree: r.Degree, TermsPerSwitch: r.TermsPerSwitch, Edges: [][2]int{}}
	for _, e := range r.G.Edges() {
		out.Edges = append(out.Edges, [2]int{int(e.U), int(e.V)})
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refRRNDOT is the reference for ExportRRN's dot format.
func refRRNDOT(r *topology.RRN) []byte {
	var bw bytes.Buffer
	fmt.Fprintln(&bw, "graph rrn {")
	fmt.Fprintln(&bw, "  node [shape=circle, fontsize=10];")
	for _, e := range r.G.Edges() {
		fmt.Fprintf(&bw, "  s%d -- s%d;\n", e.U, e.V)
	}
	fmt.Fprintln(&bw, "}")
	return bw.Bytes()
}

// refRRNEdges is the reference for ExportRRN's edges format.
func refRRNEdges(r *topology.RRN) []byte {
	var bw bytes.Buffer
	for _, e := range r.G.Edges() {
		fmt.Fprintln(&bw, e.U, e.V)
	}
	return bw.Bytes()
}

// TestStreamedExportGoldens pins every streamed export format against the
// reference encoders, across a random folded Clos, a fat-tree, and an RRN.
func TestStreamedExportGoldens(t *testing.T) {
	rfc, err := core.Generate(core.Params{Radix: 8, Levels: 3, Leaves: 32}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	cft, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		c    *topology.Clos
	}{{"rfc", rfc}, {"cft", cft}} {
		refs := map[string][]byte{
			"json":  refClosJSON(t, tc.c),
			"dot":   refClosDOT(tc.c),
			"edges": refClosEdges(tc.c),
		}
		for _, format := range topology.ExportFormats() {
			var got bytes.Buffer
			if err := topology.Export(tc.c, format, &got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), refs[format]) {
				t.Errorf("%s/%s: streamed output differs from reference encoder\ngot:  %q\nwant: %q",
					tc.name, format, truncate(got.Bytes()), truncate(refs[format]))
			}
		}
	}

	rrn, err := topology.NewRRN(24, 5, 3, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	rrnRefs := map[string][]byte{
		"json":  refRRNJSON(t, rrn),
		"dot":   refRRNDOT(rrn),
		"edges": refRRNEdges(rrn),
	}
	for _, format := range topology.ExportFormats() {
		var got bytes.Buffer
		if err := topology.ExportRRN(rrn, format, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), rrnRefs[format]) {
			t.Errorf("rrn/%s: streamed output differs from reference encoder\ngot:  %q\nwant: %q",
				format, truncate(got.Bytes()), truncate(rrnRefs[format]))
		}
	}
}

// TestRRNEmptyEdgesJSON is the regression test for the "edges": null bug: an
// edgeless network of either kind must emit a stable empty array.
func TestRRNEmptyEdgesJSON(t *testing.T) {
	rrn, err := topology.NewRRN(4, 0, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	clos, err := topology.NewEmpty([]int{2, 1}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		export func(*bytes.Buffer) error
		want   string
	}{
		{"rrn", func(b *bytes.Buffer) error { return topology.ExportRRN(rrn, "json", b) },
			`{"n":4,"degree":0,"terms_per_switch":2,"edges":[]}` + "\n"},
		{"clos", func(b *bytes.Buffer) error { return topology.Export(clos, "json", b) },
			`{"radix":2,"terms_per_leaf":1,"level_sizes":[2,1],"links":[]}` + "\n"},
	} {
		var buf bytes.Buffer
		if err := tc.export(&buf); err != nil {
			t.Fatal(err)
		}
		if buf.String() != tc.want {
			t.Errorf("edgeless %s JSON = %q, want %q", tc.name, buf.String(), tc.want)
		}
	}
}

func truncate(b []byte) []byte {
	if len(b) > 300 {
		return append(append([]byte(nil), b[:300]...), "..."...)
	}
	return b
}
