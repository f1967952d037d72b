// Package analysis implements one runner per exhibit of the paper's
// evaluation — Figures 5 through 12 and Table 3, plus the §5 cost
// comparisons and a Theorem 4.2 Monte-Carlo check. Each runner returns a
// Report whose rows mirror what the paper plots or tabulates, at either the
// paper's exact parameters or a laptop-friendly scaled configuration that
// preserves the comparison's shape (see DESIGN.md).
package analysis

import (
	"fmt"
	"strings"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
)

// CellKind discriminates the typed cell variants.
type CellKind uint8

const (
	// CellString is opaque pre-rendered text.
	CellString CellKind = iota
	// CellInt renders an integer through Fmt (default %d).
	CellInt
	// CellFloat renders a float through Fmt (default %g).
	CellFloat
	// CellMean renders the mean of job-indexed observations: the mergeable
	// aggregate behind sharded sweeps. The rendered value is
	// mean(Obs)/Div*Mul (Div and Mul applied only when non-zero), followed
	// by Suffix.
	CellMean
	// CellStd renders the sample standard deviation of the observations,
	// with the same Div/Mul/Suffix treatment as CellMean.
	CellStd
)

// Cell is one typed table cell. Static kinds (string/int/float) must agree
// across shards; aggregate kinds (mean/std) carry the observations this
// process produced plus the count the full grid will produce, and merge by
// taking the union of observations.
type Cell struct {
	Kind CellKind
	// S is the text of a CellString.
	S string
	// I is the value of a CellInt.
	I int64
	// F is the value of a CellFloat.
	F float64
	// Fmt is the fmt verb for Int/Float/Mean/Std values.
	Fmt string
	// Suffix follows the formatted aggregate value ("52.6" ->
	// "52.6% (R=12)").
	Suffix string
	// Div and Mul transform the aggregate statistic before formatting:
	// v = stat(obs); if Div != 0 { v /= Div }; if Mul != 0 { v *= Mul }.
	// The order (divide, then multiply) is part of the byte-compatibility
	// contract with the pre-registry report code.
	Div, Mul float64
	// Want is the observation count the full (unsharded) grid produces for
	// this cell; merged reports are complete when len(Obs) == Want.
	Want int
	// Obs are the job-indexed observations recorded by this process.
	Obs []metrics.Obs
}

// Str returns a static text cell.
func Str(s string) Cell { return Cell{Kind: CellString, S: s} }

// Int returns an integer cell rendered with %d.
func Int(v int) Cell { return Cell{Kind: CellInt, I: int64(v)} }

// Float returns a float cell rendered with the given fmt verb.
func Float(v float64, format string) Cell { return Cell{Kind: CellFloat, F: v, Fmt: format} }

// Mean returns an aggregate cell rendering the observation mean.
func Mean(obs []metrics.Obs, want int, format string) Cell {
	return Cell{Kind: CellMean, Obs: obs, Want: want, Fmt: format}
}

// Std returns an aggregate cell rendering the observation sample stddev.
func Std(obs []metrics.Obs, want int, format string) Cell {
	return Cell{Kind: CellStd, Obs: obs, Want: want, Fmt: format}
}

func (c *Cell) format() string {
	if c.Fmt != "" {
		return c.Fmt
	}
	if c.Kind == CellInt {
		return "%d"
	}
	return "%g"
}

// Value returns the cell's numeric value: the stored number for int/float
// cells, the transformed statistic for aggregates, 0 for strings.
func (c *Cell) Value() float64 {
	switch c.Kind {
	case CellInt:
		return float64(c.I)
	case CellFloat:
		return c.F
	case CellMean, CellStd:
		s := metrics.SummarizeObs(c.Obs)
		v := s.Mean()
		if c.Kind == CellStd {
			v = s.StdDev()
		}
		if c.Div != 0 {
			v /= c.Div
		}
		if c.Mul != 0 {
			v *= c.Mul
		}
		return v
	}
	return 0
}

// Text renders the cell exactly as Format and CSV print it.
func (c *Cell) Text() string {
	switch c.Kind {
	case CellString:
		return c.S
	case CellInt:
		return fmt.Sprintf(c.format(), c.I)
	case CellFloat:
		return fmt.Sprintf(c.format(), c.F)
	case CellMean, CellStd:
		return fmt.Sprintf(c.format(), c.Value()) + c.Suffix
	}
	return ""
}

// isAggregate reports whether the cell merges by observation union.
func (c *Cell) isAggregate() bool { return c.Kind == CellMean || c.Kind == CellStd }

// Row is one report row: a coordinate key identifying the row across shards
// plus its typed cells.
type Row struct {
	Key   string
	Cells []Cell
}

// Report is an experiment result: a title, column headers and typed rows.
// Exhibit, Shard and Params are provenance for the JSON form; they do not
// print.
type Report struct {
	Exhibit string
	Shard   engine.Shard
	// Params is a canonical rendering of the parameters the report was run
	// with, shard and worker count aside. Partials merge only when their
	// stamps agree.
	Params string
	Title  string
	Notes  []string
	Header []string
	Rows   []Row
}

// AddRow appends a row keyed by its position ("#0", "#1", ...). Exhibits
// whose rows carry natural sweep coordinates should use AddKeyed instead.
func (r *Report) AddRow(cells ...Cell) {
	r.AddKeyed(fmt.Sprintf("#%d", len(r.Rows)), cells...)
}

// AddKeyed appends a row under an explicit coordinate key. Keys must be
// unique within a report and identical across shards of the same run.
func (r *Report) AddKeyed(key string, cells ...Cell) {
	r.Rows = append(r.Rows, Row{Key: key, Cells: cells})
}

// Strings renders every row's cells to text, the shape tests and plotting
// glue consume.
func (r *Report) Strings() [][]string {
	out := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		cells := make([]string, len(row.Cells))
		for j := range row.Cells {
			cells[j] = row.Cells[j].Text()
		}
		out[i] = cells
	}
	return out
}

// Format renders the report as aligned text. Columns are sized over the
// header and every row, including columns beyond the header's width.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	rows := r.Strings()
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for len(row) > len(widths) {
			widths = append(widths, 0)
		}
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the report as comma-separated values (header row first),
// ready for any plotting tool. Cells containing commas or quotes are
// quoted per RFC 4180.
func (r *Report) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, r.Header)
	for _, row := range r.Strings() {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

// MissingObs returns how many observations the report still lacks relative
// to its aggregate cells' Want counts: 0 means the report is complete (all
// shards merged in).
func (r *Report) MissingObs() int {
	missing := 0
	for _, row := range r.Rows {
		for i := range row.Cells {
			c := &row.Cells[i]
			if c.isAggregate() && len(c.Obs) < c.Want {
				missing += c.Want - len(c.Obs)
			}
		}
	}
	return missing
}
