package exhibit

import (
	"os"
	"strings"
	"testing"
)

// TestGoldenCompleteness keeps the registry and testdata/golden in
// lock-step: every registered exhibit must have a pinned golden file, and
// every golden file must correspond to a registered exhibit — an orphaned
// golden means an exhibit was renamed or dropped without its regression
// anchor, a missing one means a new exhibit shipped unpinned.
func TestGoldenCompleteness(t *testing.T) {
	entries, err := os.ReadDir("testdata/golden")
	if err != nil {
		t.Fatal(err)
	}
	goldens := map[string]bool{}
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".txt")
		if !ok {
			t.Errorf("unexpected non-golden file testdata/golden/%s", e.Name())
			continue
		}
		goldens[name] = true
	}
	// "all" pins the concatenated -exhibit all replay (TestGoldenAll) and
	// "help" the -list text (TestUsageListsEveryID), not a single
	// registered exhibit.
	registered := map[string]bool{"all": true, "help": true}
	for _, id := range IDs() {
		registered[id] = true
	}
	for id := range registered {
		if !goldens[id] {
			t.Errorf("registered exhibit %q has no golden file under testdata/golden", id)
		}
	}
	for name := range goldens {
		if !registered[name] {
			t.Errorf("golden file %s.txt corresponds to no registered exhibit", name)
		}
	}
}
