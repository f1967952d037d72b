package rfclos

import (
	"strings"
	"testing"
)

// TestFacadeSmoke exercises the public API's entry points once, at minimal
// sizes: the generators and the planner, and RunExhibit for one exhibit of
// each kind plus an unknown id.
func TestFacadeSmoke(t *testing.T) {
	if _, err := NewRFCUnchecked(Params{Radix: 8, Levels: 2, Leaves: 8}, 1); err != nil {
		t.Errorf("NewRFCUnchecked: %v", err)
	}
	if _, err := NewGeneralRFC(NewHashnetParams(8, 3, 4, 4), 1); err != nil {
		t.Errorf("NewGeneralRFC: %v", err)
	}
	quick := ExhibitParams{Scale: ScaleSmall, Seed: 1, Trials: 2, Cycles: 300, Reps: 1,
		Loads: []float64{0.3}, Patterns: []string{"uniform"}}
	for _, id := range []string{"thm42", "fig8", "table3", "hotspot"} {
		if rep, err := RunExhibit(id, quick); err != nil || len(rep.Rows) == 0 {
			t.Errorf("RunExhibit(%q): %v", id, err)
		}
	}
	if _, err := RunExhibit("fig99", quick); err == nil || !strings.Contains(err.Error(), "fig5") {
		t.Errorf("RunExhibit(fig99) = %v, want an error listing the known ids", err)
	}
	if steps, err := PlanExpansion(16, 3, 1024, 2048, 5); err != nil || len(steps) == 0 {
		t.Errorf("PlanExpansion: %v", err)
	}
}

func TestFacadeReportFormat(t *testing.T) {
	rep, err := RunExhibit("costs", ExhibitParams{})
	if err != nil {
		t.Fatal(err)
	}
	if out := rep.Format(); len(out) < 100 {
		t.Errorf("Format produced suspiciously short output: %q", out)
	}
}
