package topology

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"rfclos/internal/rng"
)

// TestExportFormatsDispatch checks Export and ExportRRN accept exactly the
// formats ExportFormats lists (the contract rfcgen and rfcd's export
// handler rely on), that each format yields distinct non-empty bytes, and
// that both reject an unknown format without writing anything.
func TestExportFormatsDispatch(t *testing.T) {
	c, err := NewCFT(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	rrn, err := NewRRN(16, 4, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	exporters := map[string]func(string, *bytes.Buffer) error{
		"clos": func(f string, b *bytes.Buffer) error { return Export(c, f, b) },
		"rrn":  func(f string, b *bytes.Buffer) error { return ExportRRN(rrn, f, b) },
	}
	for kind, export := range exporters {
		seen := map[string]string{}
		for _, format := range ExportFormats() {
			var buf bytes.Buffer
			if err := export(format, &buf); err != nil {
				t.Fatalf("%s/%s: %v", kind, format, err)
			}
			if buf.Len() == 0 {
				t.Errorf("%s/%s produced no output", kind, format)
			}
			if prev, dup := seen[buf.String()]; dup {
				t.Errorf("%s: formats %q and %q produced the same bytes", kind, prev, format)
			}
			seen[buf.String()] = format
		}
		var buf bytes.Buffer
		if err := export("yaml", &buf); err == nil {
			t.Errorf("%s: unknown format accepted", kind)
		}
		if buf.Len() != 0 {
			t.Errorf("%s: unknown format wrote %d bytes", kind, buf.Len())
		}
	}
}

// TestExportJSONRoundTrip checks the JSON export decodes with
// encoding/json to the network it was written from.
func TestExportJSONRoundTrip(t *testing.T) {
	c, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(c, "json", &buf); err != nil {
		t.Fatal(err)
	}
	checkJSONDescribes(t, c, buf.Bytes())
}

// rrnJSON is the schema of ExportRRN's json format: parameters plus an explicit
// edge list.
type rrnJSON struct {
	N              int      `json:"n"`
	Degree         int      `json:"degree"`
	TermsPerSwitch int      `json:"terms_per_switch"`
	Edges          [][2]int `json:"edges"`
}

// TestExportRRN checks the RRN export formats: the JSON schema carries the
// parameters and every edge, DOT and edge list carry one line per edge.
func TestExportRRN(t *testing.T) {
	rrn, err := NewRRN(16, 4, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ExportRRN(rrn, "json", &buf); err != nil {
		t.Fatal(err)
	}
	var decoded rrnJSON
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.N != 16 || decoded.Degree != 4 || decoded.TermsPerSwitch != 2 {
		t.Errorf("JSON parameters = %+v", decoded)
	}
	if len(decoded.Edges) != rrn.Wires() {
		t.Errorf("JSON has %d edges, want %d", len(decoded.Edges), rrn.Wires())
	}

	buf.Reset()
	if err := ExportRRN(rrn, "dot", &buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), " -- "); n != rrn.Wires() {
		t.Errorf("DOT has %d edges, want %d", n, rrn.Wires())
	}

	buf.Reset()
	if err := ExportRRN(rrn, "edges", &buf); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != rrn.Wires() {
		t.Errorf("edge list has %d lines, want %d", n, rrn.Wires())
	}
	if err := ExportRRN(rrn, "yaml", &bytes.Buffer{}); err == nil {
		t.Error("ExportRRN accepted an unknown format")
	}
}

// closJSON is the schema of Export's json format. Links are [lower, upper]
// global switch id pairs.
type closJSON struct {
	Radix        int      `json:"radix"`
	TermsPerLeaf int      `json:"terms_per_leaf"`
	LevelSizes   []int    `json:"level_sizes"`
	Links        [][2]int `json:"links"`
}

// checkJSONDescribes decodes a json export with encoding/json and
// checks it describes c: the same radix, terms per leaf, level sizes and
// links (compared as sorted lists, so a lost, extra or duplicated link
// fails).
func checkJSONDescribes(t *testing.T, c *Clos, doc []byte) {
	t.Helper()
	var got closJSON
	if err := json.Unmarshal(doc, &got); err != nil {
		t.Fatal(err)
	}
	if got.Radix != c.Radix || got.TermsPerLeaf != c.TermsPerLeaf {
		t.Errorf("radix, terms per leaf = %d, %d, want %d, %d", got.Radix, got.TermsPerLeaf, c.Radix, c.TermsPerLeaf)
	}
	sizes := make([]int, c.Levels())
	for lev := 1; lev <= c.Levels(); lev++ {
		sizes[lev-1] = c.LevelSize(lev)
	}
	if !slices.Equal(got.LevelSizes, sizes) {
		t.Errorf("level sizes = %v, want %v", got.LevelSizes, sizes)
	}
	want := make([][2]int, 0, c.Wires())
	for _, l := range c.Links() {
		want = append(want, [2]int{int(l.A), int(l.B)})
	}
	byPair := func(a, b [2]int) int { return slices.Compare(a[:], b[:]) }
	slices.SortFunc(want, byPair)
	slices.SortFunc(got.Links, byPair)
	if !slices.Equal(got.Links, want) {
		t.Errorf("decoded links (%d) differ from the network's (%d)", len(got.Links), len(want))
	}
}

// TestJSONRoundTrip checks the json export of a mutated network, whose
// links stream from the overlay rather than the sealed store, decodes to
// that network.
func TestJSONRoundTrip(t *testing.T) {
	c, err := NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	l := c.Links()[0]
	c.RemoveLink(l.A, l.B)
	var buf bytes.Buffer
	if err := Export(c, "json", &buf); err != nil {
		t.Fatal(err)
	}
	checkJSONDescribes(t, c, buf.Bytes())
}

func TestWriteEdgeList(t *testing.T) {
	c, err := NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(c, "edges", &buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != c.Wires() {
		t.Errorf("edge list has %d lines, want %d", len(lines), c.Wires())
	}
	if !strings.Contains(lines[0], " ") {
		t.Errorf("malformed line %q", lines[0])
	}
}

func TestWriteDOT(t *testing.T) {
	c, err := NewOFT(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Export(c, "dot", &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "graph clos {") || !strings.HasSuffix(strings.TrimSpace(out), "}") {
		t.Errorf("malformed DOT output:\n%s", truncate(buf.Bytes()))
	}
	if got := strings.Count(out, " -- "); got != c.Wires() {
		t.Errorf("DOT has %d edges, want %d", got, c.Wires())
	}
	if got := strings.Count(out, "rank=same"); got != c.Levels() {
		t.Errorf("DOT has %d ranks, want %d", got, c.Levels())
	}
}

// TestRRNEmptyEdgesJSON is the regression test for the "edges": null bug: an
// edgeless network of either kind must emit a stable empty array.
func TestRRNEmptyEdgesJSON(t *testing.T) {
	rrn, err := NewRRN(4, 0, 2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	clos, err := NewEmpty([]int{2, 1}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		export func(*bytes.Buffer) error
		want   string
	}{
		{"rrn", func(b *bytes.Buffer) error { return ExportRRN(rrn, "json", b) },
			`{"n":4,"degree":0,"terms_per_switch":2,"edges":[]}` + "\n"},
		{"clos", func(b *bytes.Buffer) error { return Export(clos, "json", b) },
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

// truncate shortens b for a failure message.
func truncate(b []byte) []byte {
	if len(b) > 300 {
		return append(append([]byte(nil), b[:300]...), "..."...)
	}
	return b
}
