package exhibit

import (
	"testing"

	"rfclos/internal/analysis"
)

// paramsReads names the Params fields each exhibit's report depends on.
// Workers, Progress and Shard are left out: no complete report depends on
// them (TestDeterminismMatrix pins that).
var paramsReads = map[string][]string{
	"fig5": nil, "fig6": nil, "fig7": nil, "costs": nil,
	"thm42":       {"Seed", "Trials"},
	"fig11":       {"Seed", "Trials"},
	"table3":      {"Seed", "Trials"},
	"structure":   {"Seed"},
	"tables":      {"Scale", "Seed"},
	"fig8":        {"Scale", "Seed", "Cycles", "Reps", "Loads", "Patterns", "InfiniteSink", "Backend"},
	"fig9":        {"Scale", "Seed", "Cycles", "Reps", "Loads", "Patterns", "InfiniteSink", "Backend"},
	"fig10":       {"Scale", "Seed", "Cycles", "Reps", "Loads", "Patterns", "InfiniteSink", "Backend"},
	"fig12":       {"Scale", "Seed", "Cycles", "Reps"},
	"rrnfaults":   {"Scale", "Seed", "Cycles", "Reps"},
	"ablation":    {"Scale", "Seed", "Cycles", "Reps"},
	"adversarial": {"Scale", "Seed", "Cycles", "Reps"},
	"jellyfish":   {"Scale", "Seed", "Cycles", "Reps", "Loads"},
	"hotspot":     {"Scale", "Seed", "Reps", "Loads"},
	"incast":      {"Scale", "Seed", "Reps", "Loads"},
	"elephants":   {"Scale", "Seed", "Reps", "Loads"},
	"storm":       {"Scale", "Seed", "Reps", "Loads"},
	"flowscale":   {"Scale", "Seed", "Reps", "Loads", "Patterns"},
}

// paramsVary moves one stamped Params field to a different value.
var paramsVary = map[string]func(*analysis.Params){
	"Scale":        func(p *analysis.Params) { p.Scale = analysis.ScalePaper },
	"Seed":         func(p *analysis.Params) { p.Seed++ },
	"Trials":       func(p *analysis.Params) { p.Trials++ },
	"Cycles":       func(p *analysis.Params) { p.Cycles += 20 },
	"Reps":         func(p *analysis.Params) { p.Reps++ },
	"Loads":        func(p *analysis.Params) { p.Loads = []float64{0.55} },
	"Patterns":     func(p *analysis.Params) { p.Patterns = []string{"random-pairing"} },
	"InfiniteSink": func(p *analysis.Params) { p.InfiniteSink = !p.InfiniteSink },
	"Backend":      func(p *analysis.Params) { p.Backend = "flow" },
}

// readSkip marks the exhibits whose read direction is left to a cheaper
// exhibit with the same row of paramsReads (fig8; thm42 and table3;
// ablation and adversarial).
var readSkip = map[string]bool{"fig9": true, "fig10": true, "fig11": true, "fig12": true, "rrnfaults": true}

// TestParamsReach pins which Params fields each exhibit reads, starting
// from matrixParams: moving every field it does not read leaves its report
// byte-identical, and moving any one field it reads, Scale aside (paper
// scale is too slow for a test), changes it.
func TestParamsReach(t *testing.T) {
	for _, e := range All() {
		e := e
		reads, ok := paramsReads[e.ID]
		if !ok {
			t.Errorf("%s: no paramsReads row", e.ID)
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slowMatrix[e.ID] {
				t.Skip("slow exhibit skipped under -short")
			}
			t.Parallel()
			format := func(p analysis.Params) string {
				t.Helper()
				rep, err := e.Run(p)
				if err != nil {
					t.Fatalf("%s: %v", e.ID, err)
				}
				return rep.Format()
			}
			base := matrixParams(e.ID)
			want := format(base)
			read := map[string]bool{}
			for _, f := range reads {
				read[f] = true
			}
			ignored := base
			for f, vary := range paramsVary {
				if !read[f] {
					vary(&ignored)
				}
			}
			if got := format(ignored); got != want {
				t.Errorf("%s: fields it does not read changed the report\n--- base ---\n%s--- varied ---\n%s", e.ID, want, got)
			}
			if readSkip[e.ID] {
				return
			}
			for _, f := range reads {
				if f == "Scale" {
					continue
				}
				p := base
				paramsVary[f](&p)
				if format(p) == want {
					t.Errorf("%s: changing %s left the report unchanged", e.ID, f)
				}
			}
		})
	}
}
