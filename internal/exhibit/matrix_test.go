package exhibit

import (
	"bytes"
	"reflect"
	"testing"

	"rfclos/internal/analysis"
	"rfclos/internal/engine"
)

// The determinism matrix pins the contract every registered exhibit keeps:
// its report is a pure function of its parameters, byte-identical for any
// worker count and any shard partition. For each exhibit it compares the
// JSON bytes of
//
//   - workers 1, unsharded (the reference),
//   - workers 3, unsharded,
//   - the 2-way and the 3-way shard partials, each written as JSON, parsed
//     back and merged (the rfcpaper -shard / rfcmerge path).
//
// A job drawing from a stream shared across jobs, an observation recorded
// for a job the shard does not own, or rows ordered by job completion all
// change at least one of these bytes.

// matrixParams shrinks goldenParams where the exhibit's cost allows it:
// the simulated exhibits run fewer cycles and loads, the fault sweeps one
// rep, thm42 fewer trials and flowscale one pattern at one load. The
// other exhibits run at their golden parameters.
func matrixParams(id string) analysis.Params {
	p := goldenParams(id)
	switch id {
	case "thm42":
		p.Trials = 2
	case "fig8", "ablation", "adversarial", "jellyfish":
		p.Cycles = 60
	case "fig9", "fig10":
		p.Cycles = 60
		p.Loads = []float64{0.8}
	case "fig12", "rrnfaults":
		p.Cycles, p.Reps = 40, 1
	case "flowscale":
		p.Loads = []float64{1.0}
		p.Patterns = []string{"uniform"}
	}
	return p
}

// slowMatrix marks the cases skipped under -short.
var slowMatrix = map[string]bool{"fig10": true, "fig11": true, "fig12": true, "rrnfaults": true}

// matrixJSON runs one exhibit and returns its report's JSON bytes.
func matrixJSON(t *testing.T, e *Exhibit, p analysis.Params) []byte {
	t.Helper()
	rep, err := e.Run(p)
	if err != nil {
		t.Fatalf("%s workers=%d shard=%q: %v", e.ID, p.Workers, p.Shard, err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mergedShards runs every shard of an n-way partition, round-trips each
// partial through JSON and merges them.
func mergedShards(t *testing.T, e *Exhibit, p analysis.Params, n int) *analysis.Report {
	t.Helper()
	parts := make([]*analysis.Report, n)
	for k := range parts {
		p.Shard = engine.Shard{K: k, N: n}
		back, err := analysis.ParseReport(matrixJSON(t, e, p))
		if err != nil {
			t.Fatalf("%s shard %d/%d: %v", e.ID, k, n, err)
		}
		parts[k] = back
	}
	merged, err := analysis.MergeReports(parts...)
	if err != nil {
		t.Fatalf("%s: merging %d shards: %v", e.ID, n, err)
	}
	if missing := merged.MissingObs(); missing != 0 {
		t.Errorf("%s: %d-shard merge lacks %d observations", e.ID, n, missing)
	}
	return merged
}

func TestDeterminismMatrix(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slowMatrix[e.ID] {
				t.Skip("slow exhibit skipped under -short")
			}
			t.Parallel()
			p := matrixParams(e.ID)
			p.Workers = 1
			want := matrixJSON(t, e, p)
			p.Workers = 3
			if got := matrixJSON(t, e, p); !bytes.Equal(got, want) {
				t.Errorf("%s: workers=3 report differs from workers=1\n--- workers=1 ---\n%s\n--- workers=3 ---\n%s",
					e.ID, want, got)
			}
			p.Workers = 2
			for _, n := range []int{2, 3} {
				merged := mergedShards(t, e, p, n)
				got, err := merged.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: %d-shard merge differs from the unsharded run\n--- unsharded ---\n%s\n--- merged ---\n%s",
						e.ID, n, want, got)
				}
				if reflect.DeepEqual(matrixParams(e.ID), goldenParams(e.ID)) {
					if got, golden := merged.Format()+"\n", readGolden(t, e.ID); got != golden {
						t.Errorf("%s: %d-shard merge differs from the golden\n--- merged ---\n%s--- golden ---\n%s",
							e.ID, n, got, golden)
					}
				}
			}
		})
	}
}
