package analysis

import (
	"encoding/json"
	"fmt"

	"rfclos/internal/engine"
	"rfclos/internal/metrics"
)

// SchemaVersion identifies the JSON report schema. Consumers must reject
// documents whose schema field does not match; bump the suffix on any
// incompatible change (see DESIGN.md "Structured reports").
const SchemaVersion = "rfclos.report/1"

// The DTO layer keeps the wire format explicit and stable, decoupled from
// the in-memory Report/Cell structs. Aggregate cells carry both the derived
// moments (n/sum/sumsq — convenient for external tooling) and the raw
// job-indexed observations; only the observations take part in merging, so
// merged means are re-summed in job order and stay bit-identical to an
// unsharded run.
type reportJSON struct {
	Schema  string    `json:"schema"`
	Exhibit string    `json:"exhibit,omitempty"`
	ShardK  int       `json:"shard_k,omitempty"`
	ShardN  int       `json:"shard_n,omitempty"`
	Params  string    `json:"params,omitempty"`
	Title   string    `json:"title"`
	Notes   []string  `json:"notes,omitempty"`
	Header  []string  `json:"header"`
	Rows    []rowJSON `json:"rows"`
}

type rowJSON struct {
	Key   string     `json:"key"`
	Cells []cellJSON `json:"cells"`
}

type cellJSON struct {
	Kind   string    `json:"kind"`
	S      string    `json:"s,omitempty"`
	I      int64     `json:"i,omitempty"`
	F      float64   `json:"f,omitempty"`
	Fmt    string    `json:"fmt,omitempty"`
	Suffix string    `json:"suffix,omitempty"`
	Div    float64   `json:"div,omitempty"`
	Mul    float64   `json:"mul,omitempty"`
	Want   int       `json:"want,omitempty"`
	N      int       `json:"n,omitempty"`
	Sum    float64   `json:"sum,omitempty"`
	SumSq  float64   `json:"sumsq,omitempty"`
	Obs    []obsJSON `json:"obs,omitempty"`
}

type obsJSON struct {
	J int     `json:"j"`
	V float64 `json:"v"`
}

var kindNames = map[CellKind]string{
	CellString: "str",
	CellInt:    "int",
	CellFloat:  "float",
	CellMean:   "mean",
	CellStd:    "std",
}

var kindsByName = func() map[string]CellKind {
	m := make(map[string]CellKind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// JSON renders the report as a versioned, mergeable document.
func (r *Report) JSON() ([]byte, error) {
	doc := reportJSON{
		Schema:  SchemaVersion,
		Exhibit: r.Exhibit,
		ShardK:  r.Shard.K,
		ShardN:  r.Shard.N,
		Params:  r.Params,
		Title:   r.Title,
		Notes:   r.Notes,
		Header:  r.Header,
		Rows:    make([]rowJSON, len(r.Rows)),
	}
	for i, row := range r.Rows {
		rj := rowJSON{Key: row.Key, Cells: make([]cellJSON, len(row.Cells))}
		for j := range row.Cells {
			c := &row.Cells[j]
			cj := cellJSON{
				Kind:   kindNames[c.Kind],
				S:      c.S,
				I:      c.I,
				F:      c.F,
				Fmt:    c.Fmt,
				Suffix: c.Suffix,
				Div:    c.Div,
				Mul:    c.Mul,
				Want:   c.Want,
			}
			if c.isAggregate() {
				sum := metrics.SummarizeObs(c.Obs)
				cj.N, cj.Sum, cj.SumSq = sum.N, sum.Sum, sum.SumSq
				cj.Obs = make([]obsJSON, len(c.Obs))
				for k, o := range c.Obs {
					cj.Obs[k] = obsJSON{J: o.Job, V: o.V}
				}
			}
			rj.Cells[j] = cj
		}
		doc.Rows[i] = rj
	}
	return json.MarshalIndent(doc, "", " ")
}

// ParseReport decodes a document produced by JSON, verifying the schema
// version.
func ParseReport(data []byte) (*Report, error) {
	var doc reportJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("analysis: bad report JSON: %w", err)
	}
	if doc.Schema != SchemaVersion {
		return nil, fmt.Errorf("analysis: report schema %q, this build reads %q", doc.Schema, SchemaVersion)
	}
	rep := &Report{
		Exhibit: doc.Exhibit,
		Shard:   engine.Shard{K: doc.ShardK, N: doc.ShardN},
		Params:  doc.Params,
		Title:   doc.Title,
		Notes:   doc.Notes,
		Header:  doc.Header,
		Rows:    make([]Row, len(doc.Rows)),
	}
	for i, rj := range doc.Rows {
		row := Row{Key: rj.Key, Cells: make([]Cell, len(rj.Cells))}
		for j, cj := range rj.Cells {
			kind, ok := kindsByName[cj.Kind]
			if !ok {
				return nil, fmt.Errorf("analysis: unknown cell kind %q", cj.Kind)
			}
			c := Cell{
				Kind:   kind,
				S:      cj.S,
				I:      cj.I,
				F:      cj.F,
				Fmt:    cj.Fmt,
				Suffix: cj.Suffix,
				Div:    cj.Div,
				Mul:    cj.Mul,
				Want:   cj.Want,
			}
			if len(cj.Obs) > 0 {
				c.Obs = make([]metrics.Obs, len(cj.Obs))
				for k, o := range cj.Obs {
					c.Obs[k] = metrics.Obs{Job: o.J, V: o.V}
				}
			}
			row.Cells[j] = c
		}
		rep.Rows[i] = row
	}
	return rep, nil
}

// MergeReports folds any number of shard partials (or complete reports) of
// the same exhibit into one report. Static structure — exhibit id, title,
// notes, header, row keys and static cells — must agree exactly, as must the
// parameter stamp; aggregate cells merge by union of their job-indexed
// observations, and one job observed with two values is an error. The merged
// report renders byte-identically to an unsharded run once every shard of a
// partition is included.
func MergeReports(parts ...*Report) (*Report, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("analysis: nothing to merge")
	}
	first := parts[0]
	out := &Report{
		Exhibit: first.Exhibit,
		Params:  first.Params,
		Title:   first.Title,
		Notes:   append([]string(nil), first.Notes...),
		Header:  append([]string(nil), first.Header...),
		Rows:    make([]Row, len(first.Rows)),
	}
	for i, row := range first.Rows {
		out.Rows[i] = Row{Key: row.Key, Cells: append([]Cell(nil), row.Cells...)}
		for j := range out.Rows[i].Cells {
			c := &out.Rows[i].Cells[j]
			c.Obs = append([]metrics.Obs(nil), c.Obs...)
		}
	}
	for _, p := range parts[1:] {
		if err := mergeInto(out, p); err != nil {
			return nil, err
		}
	}
	for i := range out.Rows {
		for j := range out.Rows[i].Cells {
			c := &out.Rows[i].Cells[j]
			if c.isAggregate() {
				obs, err := metrics.MergeObs(c.Obs)
				if err != nil {
					return nil, fmt.Errorf("analysis: %s: row %q cell %d: %w", out.Exhibit, out.Rows[i].Key, j, err)
				}
				c.Obs = obs
			}
		}
	}
	return out, nil
}

func mergeInto(dst, src *Report) error {
	if src.Exhibit != dst.Exhibit {
		return fmt.Errorf("analysis: merging different exhibits %q and %q", dst.Exhibit, src.Exhibit)
	}
	if src.Params != dst.Params {
		return fmt.Errorf("analysis: %s: partials of different runs:\n  %s\n  %s", dst.Exhibit, dst.Params, src.Params)
	}
	if src.Title != dst.Title {
		return fmt.Errorf("analysis: %s: title mismatch:\n  %q\n  %q", dst.Exhibit, dst.Title, src.Title)
	}
	if !equalStrings(src.Notes, dst.Notes) || !equalStrings(src.Header, dst.Header) {
		return fmt.Errorf("analysis: %s: notes/header mismatch between shards (different seeds or parameters?)", dst.Exhibit)
	}
	if len(src.Rows) != len(dst.Rows) {
		return fmt.Errorf("analysis: %s: row count mismatch: %d vs %d", dst.Exhibit, len(dst.Rows), len(src.Rows))
	}
	for i := range src.Rows {
		sr, dr := &src.Rows[i], &dst.Rows[i]
		if sr.Key != dr.Key {
			return fmt.Errorf("analysis: %s: row %d key mismatch: %q vs %q", dst.Exhibit, i, dr.Key, sr.Key)
		}
		if len(sr.Cells) != len(dr.Cells) {
			return fmt.Errorf("analysis: %s: row %q cell count mismatch", dst.Exhibit, sr.Key)
		}
		for j := range sr.Cells {
			sc, dc := &sr.Cells[j], &dr.Cells[j]
			if sc.Kind != dc.Kind || sc.Fmt != dc.Fmt || sc.Suffix != dc.Suffix ||
				sc.Div != dc.Div || sc.Mul != dc.Mul {
				return fmt.Errorf("analysis: %s: row %q cell %d shape mismatch", dst.Exhibit, sr.Key, j)
			}
			if !sc.isAggregate() {
				if sc.S != dc.S || sc.I != dc.I || sc.F != dc.F {
					return fmt.Errorf("analysis: %s: row %q cell %d static value mismatch (%q vs %q)",
						dst.Exhibit, sr.Key, j, dc.Text(), sc.Text())
				}
				continue
			}
			if sc.Want != dc.Want {
				return fmt.Errorf("analysis: %s: row %q cell %d want mismatch: %d vs %d",
					dst.Exhibit, sr.Key, j, dc.Want, sc.Want)
			}
			dc.Obs = append(dc.Obs, sc.Obs...)
		}
	}
	return nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
