package analysis

import (
	"strings"
	"testing"

	"rfclos/internal/metrics"
)

// TestFormatWidthsCoverAllRows is the regression test for the width bug the
// pre-typed Format carried: rows with more cells than the header reused the
// last header width instead of sizing the extra columns, and cell widths
// beyond the header never widened their column.
func TestFormatWidthsCoverAllRows(t *testing.T) {
	rep := &Report{
		Title:  "widths",
		Header: []string{"a", "b"},
	}
	rep.AddRow(Str("x"), Str("longer-than-header"), Str("extra-col"))
	rep.AddRow(Str("wide-first-cell"), Str("y"), Str("z"))
	out := rep.Format()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // title, header, two rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Every data row must be padded to the same rendered width per column:
	// the second column of both rows starts at the same offset, as does the
	// third (which has no header at all).
	row1, row2 := lines[2], lines[3]
	if got, want := strings.Index(row1, "longer-than-header"), strings.Index(row2, "y"); got != want {
		t.Errorf("column 2 misaligned: offset %d vs %d\n%s", got, want, out)
	}
	if got, want := strings.Index(row1, "extra-col"), strings.Index(row2, "z"); got != want {
		t.Errorf("column 3 (beyond header) misaligned: offset %d vs %d\n%s", got, want, out)
	}
}

func TestCellText(t *testing.T) {
	obs := []metrics.Obs{{Job: 0, V: 2}, {Job: 1, V: 4}}
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{Str("hi"), "hi"},
		{Int(42), "42"},
		{Float(0.5, "%.2f"), "0.50"},
		{Float(12.0, "%g"), "12"},
		{Mean(obs, 2, "%.1f"), "3.0"},
		{Std(obs, 2, "%.3f"), "1.414"},
	} {
		c := tc.cell
		if got := c.Text(); got != tc.want {
			t.Errorf("Text() = %q, want %q", got, tc.want)
		}
	}
	// Div-then-Mul transform order, with prefix/suffix.
	c := Mean(obs, 2, "%.1f")
	c.Div = 2
	c.Mul = 100
	c.Suffix = "%"
	if got := c.Text(); got != "150.0%" {
		t.Errorf("transformed Text() = %q, want 150.0%%", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := &Report{
		Exhibit: "demo",
		Title:   "round trip",
		Notes:   []string{"a note"},
		Header:  []string{"k", "v"},
	}
	m := Mean([]metrics.Obs{{Job: 1, V: 0.123456789012345}}, 3, "%.4f")
	m.Div = 7
	m.Suffix = "!"
	rep.AddKeyed("r1", Str("s"), m)
	rep.AddKeyed("r2", Int(-5), Float(2.5, "%g"))

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), SchemaVersion) {
		t.Errorf("JSON missing schema version %q", SchemaVersion)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Exhibit != "demo" || back.Format() != rep.Format() || back.CSV() != rep.CSV() {
		t.Errorf("round trip changed output:\n%s\nvs\n%s", rep.Format(), back.Format())
	}
	if back.Rows[0].Cells[1].Want != 3 {
		t.Errorf("Want not preserved: %d", back.Rows[0].Cells[1].Want)
	}
	if back.MissingObs() != 2 {
		t.Errorf("MissingObs = %d, want 2", back.MissingObs())
	}

	if _, err := ParseReport([]byte(`{"schema":"rfclos.report/999","title":"x"}`)); err == nil {
		t.Error("foreign schema version accepted")
	}
	if _, err := ParseReport([]byte(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

func TestMergeReportsValidation(t *testing.T) {
	mk := func(mut func(*Report)) *Report {
		r := &Report{Exhibit: "e", Params: "seed=7", Title: "t", Header: []string{"h"}}
		r.AddKeyed("k", Str("s"), Mean([]metrics.Obs{{Job: 0, V: 1}}, 2, "%.1f"))
		if mut != nil {
			mut(r)
		}
		return r
	}
	if _, err := MergeReports(); err == nil {
		t.Error("empty merge accepted")
	}
	for name, mut := range map[string]func(*Report){
		"exhibit":  func(r *Report) { r.Exhibit = "other" },
		"title":    func(r *Report) { r.Title = "other" },
		"header":   func(r *Report) { r.Header = []string{"x"} },
		"row key":  func(r *Report) { r.Rows[0].Key = "other" },
		"static":   func(r *Report) { r.Rows[0].Cells[0].S = "other" },
		"want":     func(r *Report) { r.Rows[0].Cells[1].Want = 9 },
		"cell fmt": func(r *Report) { r.Rows[0].Cells[1].Fmt = "%.9f" },
		"rows":     func(r *Report) { r.AddKeyed("k2", Str("s")) },
		"params":   func(r *Report) { r.Params = "seed=8" },
		"conflicting duplicate job": func(r *Report) {
			r.Rows[0].Cells[1].Obs = []metrics.Obs{{Job: 0, V: 5}}
		},
	} {
		if _, err := MergeReports(mk(nil), mk(mut)); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
	}
	// A valid merge unions observations and fills the Want contract.
	a := mk(nil)
	b := mk(func(r *Report) { r.Rows[0].Cells[1].Obs = []metrics.Obs{{Job: 1, V: 3}} })
	merged, err := MergeReports(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.MissingObs() != 0 {
		t.Errorf("MissingObs = %d after full merge", merged.MissingObs())
	}
	if got := merged.Rows[0].Cells[1].Text(); got != "2.0" {
		t.Errorf("merged mean = %q, want 2.0", got)
	}
	// Merging must not mutate its inputs.
	if len(a.Rows[0].Cells[1].Obs) != 1 {
		t.Errorf("merge mutated input: %v", a.Rows[0].Cells[1].Obs)
	}
}
