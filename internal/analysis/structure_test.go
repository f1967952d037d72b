package analysis

import (
	"strings"
	"testing"
)

func TestStructureReport(t *testing.T) {
	rep, err := Structure(Params{Seed: 3}, 256, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 3 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	byName := map[string][]string{}
	for _, row := range rep.Strings() {
		byName[row[0]] = row
	}
	for _, name := range []string{"CFT", "RFC", "RRN"} {
		row, ok := byName[name]
		if !ok {
			t.Fatalf("missing %s row", name)
		}
		if d := atofOrZero(row[3]); d < 2 || d > 8 {
			t.Errorf("%s leaf diameter %v implausible", name, d)
		}
		if pd := atofOrZero(row[5]); pd <= 0 {
			t.Errorf("%s path diversity %v should be positive", name, pd)
		}
	}
	// §7: OFT has the lowest path diversity of the indirect networks.
	if oft, ok := byName["OFT"]; ok {
		if atofOrZero(oft[5]) > atofOrZero(byName["CFT"][5]) {
			t.Errorf("OFT path diversity %v above CFT %v", oft[5], byName["CFT"][5])
		}
	}
}

func TestAdversarialReport(t *testing.T) {
	rep, err := Adversarial(Params{Scale: ScaleSmall, Reps: 1, Cycles: 1200, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (CFT, RFC, RRN)", len(rep.Rows))
	}
	for _, row := range rep.Strings() {
		acc := atofOrZero(row[1])
		// The rearrangeably non-blocking CFT routes a permutation at high
		// rate; the RFC sustains a large fraction too (§4.2's normalized
		// bisection is ~0.8 at this scale, minus head-of-line losses); the
		// equal-T RRN's minimal routing lands near the 50% bisection mark.
		min := 0.35
		if strings.HasPrefix(row[0], "CFT") {
			min = 0.55
		}
		if strings.HasPrefix(row[0], "RRN") {
			min = 0.30
		}
		if acc < min {
			t.Errorf("%s: adversarial accepted %v, want > %v", row[0], acc, min)
		}
		if acc > 1.05 {
			t.Errorf("%s: accepted %v above full rate", row[0], acc)
		}
	}
}

func TestTablesReport(t *testing.T) {
	rep, err := TablesReport(Params{Scale: ScaleSmall, Seed: 9}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	text := rep.Format()
	if !strings.Contains(text, "CFT") || !strings.Contains(text, "RFC") || !strings.Contains(text, "RRN") {
		t.Errorf("missing networks in:\n%s", text)
	}
	// The router's bitset state must be far smaller than explicit tables.
	for _, row := range rep.Strings()[:2] {
		explicit, bitset := atofOrZero(row[4]), atofOrZero(row[5])
		if bitset <= 0 || explicit <= 0 {
			t.Errorf("%s: missing size accounting", row[0])
		}
	}
}

func TestJellyfishReport(t *testing.T) {
	rep, err := Jellyfish(Params{Scale: ScaleSmall, Loads: []float64{0.4}, Reps: 1, Cycles: 1000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// 3 networks × 1 load.
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rep.Rows))
	}
	for _, row := range rep.Strings() {
		acc := atofOrZero(row[2])
		if acc < 0.3 || acc > 0.45 {
			t.Errorf("%s at 0.4 offered accepted %v", row[0], acc)
		}
	}
}
