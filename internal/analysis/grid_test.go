package analysis

import (
	"strings"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/simnet"
)

// TestGridRejectsRepeats checks that a sweep exhibit refuses a repeated x
// or a repeated group instead of folding two identical points into one
// row: a load given twice, or a pattern given twice (which repeats every
// network's group for it).
func TestGridRejectsRepeats(t *testing.T) {
	tiny := Scenario{
		Name: "tiny",
		CFT:  CFTSpec{Radix: 8, Levels: 3, TermsPerLeaf: 4},
		RFC:  core.Params{Radix: 8, Levels: 3, Leaves: 32},
	}
	sim := simnet.Config{WarmupCycles: 100, MeasureCycles: 200}
	for _, tc := range []struct {
		name string
		run  func() (*Report, error)
		want string
	}{
		{"scenario load", func() (*Report, error) {
			return ScenarioSweep(tiny, SimOptions{Loads: []float64{0.2, 0.4, 0.2}, Reps: 1, Sim: sim, Patterns: []string{"uniform"}, Seed: 3})
		}, `sweep group "CFT-3L-R8/uniform" repeats x = 0.2`},
		{"scenario pattern", func() (*Report, error) {
			return ScenarioSweep(tiny, SimOptions{Loads: []float64{0.2}, Reps: 1, Sim: sim, Patterns: []string{"uniform", "uniform"}, Seed: 3})
		}, `sweep group "CFT-3L-R8/uniform" appears twice`},
		{"flowscale load", func() (*Report, error) {
			return FlowScale(ScaleSmall, FlowOptions{Loads: []float64{0.5, 0.5}, Reps: 1, Patterns: []string{"uniform"}, Seed: 7})
		}, `sweep group "XGFT-4L-R16/uniform" repeats x = 0.5`},
		{"flowscale pattern", func() (*Report, error) {
			return FlowScale(ScaleSmall, FlowOptions{Loads: []float64{0.5}, Reps: 1, Patterns: []string{"storm", "uniform", "storm"}, Seed: 7})
		}, `sweep group "XGFT-4L-R16/storm" appears twice`},
		{"jellyfish load", func() (*Report, error) {
			return Jellyfish(JellyfishOptions{Scale: ScaleSmall, Loads: []float64{0.4, 0.4}, Reps: 1, Sim: sim, Seed: 17})
		}, "repeats x = 0.4"},
	} {
		rep, err := tc.run()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got (%v, %v), want an error containing %q", tc.name, rep != nil, err, tc.want)
		}
	}
}
