package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rfclos/internal/analysis"
	"rfclos/internal/engine"
	"rfclos/internal/exhibit"
)

func writeReport(t *testing.T, dir, name string, rep *analysis.Report) string {
	t.Helper()
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runExhibit runs one exhibit through the registry, which stamps its id,
// shard and parameters on the report.
func runExhibit(t *testing.T, id string, p analysis.Params) *analysis.Report {
	t.Helper()
	e, _ := exhibit.Lookup(id)
	rep, err := e.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func table3(t *testing.T, seed uint64, sh engine.Shard) *analysis.Report {
	t.Helper()
	return runExhibit(t, "table3", analysis.Params{Seed: seed, Trials: 4, Shard: sh})
}

// TestMergeShardsToFinalReport drives run() the way the CLI does: two shard
// partials in, one merged JSON out, byte-identical to the unsharded report.
func TestMergeShardsToFinalReport(t *testing.T) {
	parts := t.TempDir()
	out := t.TempDir()
	p0 := writeReport(t, parts, "table3.shard0-of-2.json", table3(t, 11, engine.Shard{K: 0, N: 2}))
	p1 := writeReport(t, parts, "table3.shard1-of-2.json", table3(t, 11, engine.Shard{K: 1, N: 2}))

	if err := run([]string{p0, p1}, false, false, out, false, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(out, "table3.json"))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := analysis.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	full := table3(t, 11, engine.Shard{})
	if merged.Format() != full.Format() {
		t.Errorf("merged output differs from unsharded:\n%s\nvs\n%s", merged.Format(), full.Format())
	}

	// One shard alone is incomplete: an error without -allow-partial, a
	// warning with it.
	if err := run([]string{p0}, false, false, out, false, true); err == nil {
		t.Error("missing shard accepted without -allow-partial")
	}
	if err := run([]string{p0}, false, false, out, true, true); err != nil {
		t.Errorf("-allow-partial rejected a lone shard: %v", err)
	}
}

// TestMixedSeedsRefused merges the two halves of a partition run at
// different seeds: every job is present once, so only the parameter stamp
// tells the partials apart.
func TestMixedSeedsRefused(t *testing.T) {
	parts := t.TempDir()
	p0 := writeReport(t, parts, "table3.shard0-of-2.json", table3(t, 11, engine.Shard{K: 0, N: 2}))
	p1 := writeReport(t, parts, "table3.shard1-of-2.json", table3(t, 12, engine.Shard{K: 1, N: 2}))
	err := run([]string{p0, p1}, false, false, t.TempDir(), false, true)
	if err == nil || !strings.Contains(err.Error(), "seed=12") {
		t.Errorf("partials of seeds 11 and 12 merged: err = %v", err)
	}
}

// TestRestatedDefaultMerges shards adversarial with its default reps (2)
// given on one half and left implicit on the other. Both halves stamp the
// reps the runner used, so they merge, byte-identical to the unsharded run.
func TestRestatedDefaultMerges(t *testing.T) {
	parts, out := t.TempDir(), t.TempDir()
	p0 := writeReport(t, parts, "adversarial.shard0-of-2.json",
		runExhibit(t, "adversarial", analysis.Params{Seed: 7, Cycles: 60, Reps: 2, Shard: engine.Shard{K: 0, N: 2}}))
	p1 := writeReport(t, parts, "adversarial.shard1-of-2.json",
		runExhibit(t, "adversarial", analysis.Params{Seed: 7, Cycles: 60, Shard: engine.Shard{K: 1, N: 2}}))
	if err := run([]string{p0, p1}, false, false, out, false, true); err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	if err := exhibit.WriteReport(runExhibit(t, "adversarial", analysis.Params{Seed: 7, Cycles: 60}), false, false, full, true); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "adversarial.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(full, "adversarial.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged JSON differs from the unsharded run's:\n%s\nvs\n%s", got, want)
	}
}
