package topology

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rfclos/internal/rng"
)

// TestExportFormatsDispatch checks Export produces the same bytes as the
// per-format writers (the property rfcgen and the service rely on), and
// rejects unknown formats.
func TestExportFormatsDispatch(t *testing.T) {
	c, err := NewCFT(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	writers := map[string]func(*Clos, *bytes.Buffer) error{
		"json":  func(c *Clos, b *bytes.Buffer) error { return c.WriteJSON(b) },
		"dot":   func(c *Clos, b *bytes.Buffer) error { return c.WriteDOT(b) },
		"edges": func(c *Clos, b *bytes.Buffer) error { return c.WriteEdgeList(b) },
	}
	for _, format := range ExportFormats() {
		var direct, viaExport bytes.Buffer
		if err := writers[format](c, &direct); err != nil {
			t.Fatal(err)
		}
		if err := Export(c, format, &viaExport); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(direct.Bytes(), viaExport.Bytes()) {
			t.Errorf("Export(%q) differs from the direct writer", format)
		}
		if direct.Len() == 0 {
			t.Errorf("format %q produced no output", format)
		}
	}
	if err := Export(c, "yaml", &bytes.Buffer{}); err == nil {
		t.Error("Export accepted an unknown format")
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

// rrnJSON is the schema RRN.WriteJSON streams: parameters plus an explicit
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
