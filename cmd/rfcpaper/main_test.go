package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rfclos/internal/analysis"
)

// TestEveryExhibitRoundTripsThroughRun checks what only the CLI adds to
// an exhibit run: run() resolves the id and writes a parseable <id>.json
// stamped with it under -out. One cheap exhibit suffices; internal/exhibit's
// TestGoldenAll runs every exhibit at the "-exhibit all" settings and checks
// each report's stamp, completeness and JSON round trip.
func TestEveryExhibitRoundTripsThroughRun(t *testing.T) {
	const id = "fig5"
	dir := t.TempDir()
	r := runner{params: analysis.Params{Seed: 7}, outDir: dir, quiet: true}
	if err := r.run(id); err != nil {
		t.Fatalf("run(%q): %v", id, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, id+".json"))
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
}

func TestRunUnknownExhibit(t *testing.T) {
	r := runner{quiet: true}
	err := r.run("fig99")
	if err == nil || !strings.Contains(err.Error(), "unknown exhibit") {
		t.Errorf("run(fig99) = %v, want unknown-exhibit error", err)
	}
}
