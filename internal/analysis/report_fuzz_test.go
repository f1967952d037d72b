package analysis

import (
	"bytes"
	"encoding/binary"
	"math"
	"strconv"
	"testing"

	"rfclos/internal/metrics"
)

// FuzzMergeReports checks the merge path rfcmerge runs on files read from
// disk: ParseReport (and a merge of what it accepts) never panics on
// arbitrary bytes, and a report built from fuzzed observations, split into
// any k-way partition (k = 1..4), round-trips each part through JSON and
// merges to the whole report's JSON bytes. The seed corpus is under
// testdata/fuzz/FuzzMergeReports.
func FuzzMergeReports(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if rep, err := ParseReport(data); err == nil {
			_, _ = MergeReports(rep, rep)
		}
		full := fuzzReport(data)
		want := mustJSON(t, full)
		for k := 1; k <= 4; k++ {
			parts := make([]*Report, k)
			for p := range parts {
				back, err := ParseReport(mustJSON(t, fuzzPart(full, data, k, p)))
				if err != nil {
					t.Fatal(err)
				}
				parts[p] = back
			}
			merged, err := MergeReports(parts...)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			if got := mustJSON(t, merged); !bytes.Equal(got, want) {
				t.Fatalf("k=%d: merged JSON differs from the whole report\n--- whole ---\n%s\n--- merged ---\n%s", k, want, got)
			}
		}
	})
}

// fuzzReport builds a complete report from data: each of the first 64
// 9-byte chunks is one job, whose first byte picks its row and whose other
// eight are its value (skipped when not finite or too large to square and
// sum). Each row holds a mean and a stddev cell over the same observations.
func fuzzReport(data []byte) *Report {
	const rows, jobs = 3, 64
	obs := make([][]metrics.Obs, rows)
	for job := 0; job < jobs && (job+1)*9 <= len(data); job++ {
		chunk := data[job*9 : (job+1)*9]
		v := math.Float64frombits(binary.LittleEndian.Uint64(chunk[1:]))
		if math.IsNaN(v) || math.Abs(v) > 1e100 {
			continue
		}
		r := int(chunk[0]) % rows
		obs[r] = append(obs[r], metrics.Obs{Job: job, V: v})
	}
	rep := &Report{Exhibit: "fuzz", Params: "seed=1", Title: "fuzz", Header: []string{"row", "mean", "std"}}
	for r := range obs {
		rep.AddKeyed(strconv.Itoa(r), Int(r), Mean(obs[r], len(obs[r]), "%.17g"), Std(obs[r], len(obs[r]), "%.17g"))
	}
	return rep
}

// fuzzPart returns part p of a k-way partition of full: a job belongs to
// the part its chunk's first byte names.
func fuzzPart(full *Report, data []byte, k, p int) *Report {
	part := &Report{Exhibit: full.Exhibit, Shard: full.Shard, Params: full.Params,
		Title: full.Title, Header: full.Header}
	for _, row := range full.Rows {
		cells := append([]Cell(nil), row.Cells...)
		for c := range cells {
			var owned []metrics.Obs
			for _, o := range cells[c].Obs {
				if int(data[o.Job*9]/4)%k == p {
					owned = append(owned, o)
				}
			}
			cells[c].Obs = owned
		}
		part.AddKeyed(row.Key, cells...)
	}
	return part
}

func mustJSON(t *testing.T, r *Report) []byte {
	t.Helper()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
