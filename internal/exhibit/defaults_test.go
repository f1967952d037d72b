package exhibit

import (
	"regexp"
	"strconv"
	"testing"
)

// defaultCount matches a count default the help text states.
var defaultCount = regexp.MustCompile(`\b(reps|trials)=(\d+)\b`)

// slowDefaults marks the cases skipped under -short, those taking over a
// second: thm42's 100 trials and fig11's 5 run far above matrixParams.
var slowDefaults = map[string]bool{"thm42": true, "fig11": true, "fig12": true}

// TestDefaultsHelpMatchesRunners checks the reps= and trials= defaults the
// registry's help strings state against the runners: at matrixParams
// shapes, a run with the field left 0 and a run with it set to the stated
// value must format byte-identically.
func TestDefaultsHelpMatchesRunners(t *testing.T) {
	for _, e := range All() {
		m := defaultCount.FindStringSubmatch(e.Defaults)
		if m == nil {
			continue
		}
		field := m[1]
		k, err := strconv.Atoi(m[2])
		if err != nil {
			t.Fatal(err)
		}
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && slowDefaults[e.ID] {
				t.Skip("slow exhibit skipped under -short")
			}
			t.Parallel()
			format := func(n int) string {
				t.Helper()
				p := matrixParams(e.ID)
				if field == "reps" {
					p.Reps = n
				} else {
					p.Trials = n
				}
				rep, err := e.Run(p)
				if err != nil {
					t.Fatalf("%s %s=%d: %v", e.ID, field, n, err)
				}
				return rep.Format()
			}
			if def, stated := format(0), format(k); def != stated {
				t.Errorf("%s: help states %s=%d, but %s=0 formats differently\n--- %s=0 ---\n%s--- %s=%d ---\n%s",
					e.ID, field, k, field, field, def, field, k, stated)
			}
		})
	}
}
