package analysis

import "testing"

func TestAblations(t *testing.T) {
	rep, err := Ablations(Params{Scale: ScaleSmall, Reps: 1, Cycles: 600, Seed: 21}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// 4 VC values + 4 buffer values + 3 refresh values + 2 routing
	// policies + 2 sink models.
	if len(rep.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rep.Rows))
	}
	vals := map[string]float64{}
	for _, row := range rep.Strings() {
		a := atofOrZero(row[2])
		if a <= 0 || a > 1.05 {
			t.Errorf("accepted %v out of range for %v=%v", a, row[0], row[1])
		}
		vals[row[0]+"="+row[1]] = a
	}
	// More virtual channels must not hurt throughput materially (HoL
	// relief is the whole point of VCs in Table 2).
	if vals["virtual-channels=4"] < vals["virtual-channels=1"]-0.05 {
		t.Errorf("4 VCs (%v) should not underperform 1 VC (%v)",
			vals["virtual-channels=4"], vals["virtual-channels=1"])
	}
	// Deeper buffers must not hurt either.
	if vals["buffer-packets=4"] < vals["buffer-packets=1"]-0.05 {
		t.Errorf("4-packet buffers (%v) should not underperform 1-packet (%v)",
			vals["buffer-packets=4"], vals["buffer-packets=1"])
	}
}
