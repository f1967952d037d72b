package exhibit

import (
	"os"
	"path/filepath"
	"testing"

	"rfclos/internal/analysis"
)

// The golden files under testdata/golden were captured from the pre-registry
// CLI (string-rendered reports, if/else dispatch) at the parameters below.
// They pin the byte-compatibility contract of the whole refactor: typed
// cells, the registry dispatch and shard-aware aggregation must reproduce
// the old output exactly.

// goldenParams returns the capture parameters for one exhibit (all were
// captured with -seed 7 -quiet).
func goldenParams(id string) analysis.Params {
	p := analysis.Params{Scale: "small", Seed: 7} // the CLI's flag defaults
	switch id {
	case "thm42":
		p.Trials = 6
	case "table3":
		p.Trials = 2
	case "fig11":
		p.Trials = 1
	case "fig8", "fig9", "fig10":
		p.Cycles, p.Reps = 400, 2
		p.Loads = []float64{0.3, 0.8}
		p.Patterns = []string{"uniform"}
	case "fig12", "ablation", "adversarial", "rrnfaults":
		p.Cycles, p.Reps = 400, 2
	case "jellyfish":
		p.Cycles, p.Reps = 400, 2
		p.Loads = []float64{0.3, 0.8}
	case "hotspot", "incast", "elephants", "storm":
		p.Reps = 2
		p.Loads = []float64{0.3, 0.8}
	case "flowscale":
		p.Reps = 1
		p.Loads = []float64{0.5, 1.0}
	}
	return p
}

// slowGolden marks the exhibits worth skipping under -short.
var slowGolden = map[string]bool{"fig10": true, "fig12": true, "rrnfaults": true, "flowscale": true}

func readGolden(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".txt"))
	if err != nil {
		t.Fatalf("missing golden file: %v", err)
	}
	return string(data)
}

func TestGoldenOutputs(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slowGolden[e.ID] {
				t.Skip("slow exhibit skipped under -short")
			}
			rep, err := e.Run(goldenParams(e.ID))
			if err != nil {
				t.Fatal(err)
			}
			// The CLI prints Format() through Println, hence the newline.
			got := rep.Format() + "\n"
			if want := readGolden(t, e.ID); got != want {
				t.Errorf("%s output differs from pre-registry golden\n--- got ---\n%s--- want ---\n%s", e.ID, got, want)
			}
		})
	}
}

// TestGoldenAll replays "-exhibit all -trials 2 -cycles 300 -reps 1
// -loads 0.5 -patterns uniform": the registry's iteration order and every
// exhibit's wiring, concatenated exactly as the CLI prints them.
func TestGoldenAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full -exhibit all replay skipped under -short")
	}
	var got string
	for _, e := range All() {
		rep, err := e.Run(analysis.Params{
			Scale: "small", Seed: 7, Trials: 2, Cycles: 300, Reps: 1,
			Loads: []float64{0.5}, Patterns: []string{"uniform"},
		})
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		got += rep.Format() + "\n"
	}
	if want := readGolden(t, "all"); got != want {
		t.Errorf("-exhibit all output differs from pre-registry golden (%d vs %d bytes)", len(got), len(want))
	}
}

// TestUpdateGoldens regenerates every golden file (per-exhibit, the
// concatenated all.txt and the -list text help.txt) when
// UPDATE_EXHIBIT_GOLDEN is set; it is a no-op otherwise. Pre-existing
// goldens must come out byte-identical — check with git diff after
// running. Refresh with:
//
//	UPDATE_EXHIBIT_GOLDEN=1 go test ./internal/exhibit/ -run TestUpdateGoldens
func TestUpdateGoldens(t *testing.T) {
	if os.Getenv("UPDATE_EXHIBIT_GOLDEN") == "" {
		t.Skip("set UPDATE_EXHIBIT_GOLDEN=1 to regenerate goldens")
	}
	var all string
	for _, e := range All() {
		rep, err := e.Run(goldenParams(e.ID))
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		path := filepath.Join("testdata", "golden", e.ID+".txt")
		if err := os.WriteFile(path, []byte(rep.Format()+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		allRep, err := e.Run(analysis.Params{
			Scale: "small", Seed: 7, Trials: 2, Cycles: 300, Reps: 1,
			Loads: []float64{0.5}, Patterns: []string{"uniform"},
		})
		if err != nil {
			t.Fatalf("%s (all params): %v", e.ID, err)
		}
		all += allRep.Format() + "\n"
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden", "all.txt"), []byte(all), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "golden", "help.txt"), []byte(Help()), 0o644); err != nil {
		t.Fatal(err)
	}
}
