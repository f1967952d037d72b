package lint

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONGolden pins the -json report byte-for-byte over the nondet
// fixture: versioned header, module-root-relative slash paths, two-space indent, trailing
// newline. Regenerate with
//
//	RFCLINT_UPDATE_GOLDEN=1 go test ./internal/lint -run TestJSONGolden
//
// after deliberately changing the fixture or the report format.
func TestJSONGolden(t *testing.T) {
	ld := newTestLoader(t)
	cfg := fixtureConfig(t, ld.Module)
	dir := filepath.Join("testdata", "src", "nondet")
	findings, err := Run(cfg, ld, []string{dir})
	if err != nil {
		t.Fatal(err)
	}
	report := NewReport(ld.Module, ld.Root, 1, findings)
	var buf bytes.Buffer
	if err := report.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden", "nondet_report.json")
	if os.Getenv("RFCLINT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with RFCLINT_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("JSON report drifted from golden %s:\ngot:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestJSONEmptyFindings pins the clean-run shape: findings must encode as
// [], never null, so jq-style CI parsing does not need a null guard.
func TestJSONEmptyFindings(t *testing.T) {
	r := NewReport("example.com/m", "/tmp", 3, nil)
	var buf bytes.Buffer
	if err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	if !strings.Contains(s, `"findings": []`) {
		t.Errorf("empty findings did not encode as []:\n%s", s)
	}
	if !strings.Contains(s, `"version": "`+ReportVersion+`"`) {
		t.Errorf("report missing version %q:\n%s", ReportVersion, s)
	}
	if !strings.HasSuffix(s, "\n") {
		t.Error("report does not end with a newline")
	}
}

func sampleReport() *Report {
	return &Report{
		Version:  ReportVersion,
		Module:   "example.com/m",
		Packages: 2,
		Findings: []JSONFinding{
			{File: "a/a.go", Line: 3, Col: 1, Rule: "nondet-source", Msg: "clock"},
			{File: "b/b.go", Line: 9, Col: 2, Rule: "map-range-order", Msg: "unsorted"},
		},
	}
}

// TestBaselineApply covers the accept-then-ratchet semantics: accepted
// findings are removed and counted, unmatched entries come back stale.
func TestBaselineApply(t *testing.T) {
	r := sampleReport()
	b := &Baseline{Version: BaselineVersion, Accept: []BaselineEntry{
		{File: "a/a.go", Rule: "nondet-source", Msg: "clock"},
		{File: "gone.go", Rule: "nondet-source", Msg: "fixed long ago"},
	}}
	stale := b.Apply(r)
	if r.Baselined != 1 {
		t.Errorf("Baselined = %d, want 1", r.Baselined)
	}
	if len(r.Findings) != 1 || r.Findings[0].File != "b/b.go" {
		t.Errorf("kept findings = %+v, want only b/b.go", r.Findings)
	}
	if len(stale) != 1 || stale[0].File != "gone.go" {
		t.Errorf("stale = %+v, want the gone.go entry", stale)
	}

	// An empty baseline is a no-op with nothing stale.
	r = sampleReport()
	empty := &Baseline{Version: BaselineVersion}
	if stale := empty.Apply(r); len(stale) != 0 || r.Baselined != 0 || len(r.Findings) != 2 {
		t.Errorf("empty baseline changed the report: stale=%v baselined=%d findings=%d",
			stale, r.Baselined, len(r.Findings))
	}
}

// TestBaselineRoundTrip writes the accept list for a report and reloads it.
func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := WriteBaseline(path, sampleReport()); err != nil {
		t.Fatal(err)
	}
	b, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Version != BaselineVersion || len(b.Accept) != 2 {
		t.Errorf("reloaded baseline = %+v", b)
	}
	r := sampleReport()
	if stale := b.Apply(r); len(stale) != 0 || len(r.Findings) != 0 || r.Baselined != 2 {
		t.Errorf("self-written baseline did not accept everything: stale=%v findings=%d baselined=%d",
			stale, len(r.Findings), r.Baselined)
	}
}

// TestBaselineVersionCheck rejects unknown baseline formats loudly.
func TestBaselineVersionCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(`{"version":"bogus/9","accept":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBaseline(path); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("LoadBaseline accepted a bogus version (err=%v)", err)
	}
}

// TestRepoBaselineEmpty pins the repository policy: the checked-in baseline
// exists, parses, and accepts nothing — every rule runs tree-wide with no
// parked violations.
func TestRepoBaselineEmpty(t *testing.T) {
	ld := newTestLoader(t)
	b, err := LoadBaseline(filepath.Join(ld.Root, "lint-baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Accept) != 0 {
		t.Errorf("repository baseline accepts %d findings, want 0 (fix or annotate instead)", len(b.Accept))
	}
}
