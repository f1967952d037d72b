package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rfclos/internal/analysis"
	"rfclos/internal/exhibit"
)

// TestEveryExhibitRoundTripsThroughRun drives the real dispatch path for
// every registered id: run() must resolve the id, execute it at quick
// parameters, and emit a parseable JSON report stamped with the same id.
func TestEveryExhibitRoundTripsThroughRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every exhibit; skipped under -short")
	}
	dir := t.TempDir()
	r := runner{
		params: analysis.Params{
			Scale: "small", Seed: 7, Trials: 2, Cycles: 300, Reps: 1,
			Loads: []float64{0.5}, Patterns: []string{"uniform"},
		},
		outDir: dir,
		quiet:  true,
	}
	for _, id := range exhibit.IDs() {
		if err := r.run(id); err != nil {
			t.Fatalf("run(%q): %v", id, err)
		}
		path := filepath.Join(dir, id+".json")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("run(%q) wrote no report: %v", id, err)
		}
		rep, err := analysis.ParseReport(data)
		if err != nil {
			t.Fatalf("run(%q) wrote unparseable JSON: %v", id, err)
		}
		if rep.Exhibit != id {
			t.Errorf("run(%q) stamped exhibit %q", id, rep.Exhibit)
		}
		if rep.MissingObs() != 0 {
			t.Errorf("run(%q): unsharded report missing %d observations", id, rep.MissingObs())
		}
	}
}

func TestRunUnknownExhibit(t *testing.T) {
	r := runner{quiet: true}
	err := r.run("fig99")
	if err == nil || !strings.Contains(err.Error(), "unknown exhibit") {
		t.Errorf("run(fig99) = %v, want unknown-exhibit error", err)
	}
}
