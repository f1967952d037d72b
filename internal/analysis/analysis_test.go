package analysis

import (
	"strconv"
	"strings"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/engine"
	"rfclos/internal/graph"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
)

func TestFaultsToDisconnectKnownGraphs(t *testing.T) {
	r := rng.New(1)
	// A cycle survives exactly one removal: the second always disconnects.
	cyc := graph.New(8)
	for i := 0; i < 8; i++ {
		cyc.AddEdge(i, (i+1)%8)
	}
	for trial := 0; trial < 10; trial++ {
		if got := FaultsToDisconnect(cyc, r); got != 2 {
			t.Fatalf("cycle disconnects at removal %d, want 2", got)
		}
	}
	// A path disconnects on the first removal.
	path := graph.New(5)
	for i := 0; i < 4; i++ {
		path.AddEdge(i, i+1)
	}
	if got := FaultsToDisconnect(path, r); got != 1 {
		t.Errorf("path disconnects at removal %d, want 1", got)
	}
	// K5 needs at least its min degree (4) removals.
	k5 := graph.New(5)
	for i := 0; i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			k5.AddEdge(i, j)
		}
	}
	if got := FaultsToDisconnect(k5, r); got < 4 {
		t.Errorf("K5 disconnected after %d removals, want >= 4", got)
	}
	obs, err := trialObs(20, 0, 1, engine.Shard{}, func(r *rng.Rand) (float64, error) {
		return float64(FaultsToDisconnect(cyc, r)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg := meanFraction(obs, cyc.M()); avg != 2.0/8.0 {
		t.Errorf("average fraction = %v, want 0.25", avg)
	}
}

// upDownFaultObs runs the Figure 11 measure's trials on every worker.
func upDownFaultObs(t *testing.T, c *topology.Clos, trials int, seed uint64) []metrics.Obs {
	t.Helper()
	obs, err := trialObs(trials, 0, seed, engine.Shard{}, func(r *rng.Rand) (float64, error) {
		return float64(FaultsUntilUpDownLost(c, r)), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return obs
}

// meanFraction is the mean of a trial cell's observations as a fraction of
// m links, the quantity Table 3 and Figure 11 report.
func meanFraction(obs []metrics.Obs, m int) float64 {
	s := metrics.SummarizeObs(obs)
	return s.Mean() / float64(m)
}

func TestUpDownFaultToleranceOFTIsZero(t *testing.T) {
	// §7: in the 2-level OFT minimal up/down paths between leaves with
	// different points are unique, so any single link loss breaks some
	// pair.
	c, err := topology.NewOFT(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	for trial := 0; trial < 3; trial++ {
		if got := FaultsUntilUpDownLost(c, r); got != 0 {
			t.Fatalf("2-level OFT tolerated %d faults, want 0", got)
		}
	}
}

func TestUpDownFaultToleranceCFTPositive(t *testing.T) {
	// A 3-level CFT has many redundant up/down paths; it must tolerate a
	// positive fraction of faults.
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	tol := meanFraction(upDownFaultObs(t, c, 3, 3), c.Wires())
	if tol <= 0 || tol >= 1 {
		t.Errorf("CFT tolerance = %v, want in (0,1)", tol)
	}
}

func TestRFCToleratesMoreThanCFTAtEqualRadix(t *testing.T) {
	// Figure 11's headline: at the same radix and comparable size, the RFC
	// preserves up/down routing through more faults than the CFT.
	r := rng.New(4)
	cft, err := topology.NewCFT(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := core.Params{Radix: 12, Levels: 3, Leaves: cft.LevelSize(1)}
	rfc, _, _, err := core.GenerateRoutable(p, 30, r)
	if err != nil {
		t.Fatal(err)
	}
	cftTol := meanFraction(upDownFaultObs(t, cft, 4, 4), cft.Wires())
	rfcTol := meanFraction(upDownFaultObs(t, rfc, 4, 4), rfc.Wires())
	if rfcTol <= cftTol {
		t.Errorf("RFC tolerance %v not above CFT tolerance %v", rfcTol, cftTol)
	}
}

func TestRemoveRandomLinks(t *testing.T) {
	c, err := topology.NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Wires()
	removed := RemoveRandomLinks(c, 3, rng.New(5))
	if len(removed) != 3 || c.Wires() != before-3 {
		t.Errorf("removed %d links, wires %d -> %d", len(removed), before, c.Wires())
	}
	// Removing more than exist clamps.
	c2, _ := topology.NewCFT(4, 2)
	if got := RemoveRandomLinks(c2, 10000, rng.New(6)); len(got) != before {
		t.Errorf("clamped removal = %d, want %d", len(got), before)
	}
}

func TestSizingRules(t *testing.T) {
	// §7's quoted radices: T≈2048 → CFT R=20, RFC R=14, RRN R=13.
	if r := cftRadixFor(2048, 3); r != 20 {
		t.Errorf("CFT radix for 2048 = %d, want 20", r)
	}
	if p := rfcParamsFor(2048, 3); p.Radix != 14 {
		t.Errorf("RFC radix for 2048 = %d, want 14", p.Radix)
	}
	if s := rrnSpecFor(2048, 4); s.Radix() != 13 {
		t.Errorf("RRN radix for 2048 = %d, want 13", s.Radix())
	}
	// T≈1024 → OFT R=8 (q=3).
	if q, ok := oftOrderFor(1024, 3); !ok || q != 3 {
		t.Errorf("OFT order for 1024 = %d (ok=%v), want 3", q, ok)
	}
}

func TestFig5Report(t *testing.T) {
	rep := Fig5Diameter(36)
	if len(rep.Rows) == 0 {
		t.Fatal("empty report")
	}
	found := map[string]string{}
	for _, row := range rep.Strings() {
		found[row[0]+"/"+row[1]] = row[2]
	}
	if found["CFT/4"] != "11664" {
		t.Errorf("CFT diameter-4 capacity = %s, want 11664", found["CFT/4"])
	}
	// §4.2: RFC diameter-4 limit ≈ 202,554 terminals.
	if v := atofOrZero(found["RFC/4"]); v < 202000 || v > 203100 {
		t.Errorf("RFC diameter-4 capacity = %v, want ≈202.5K", v)
	}
}

func TestFig6Report(t *testing.T) {
	rep := Fig6Scalability([]int{36})
	vals := map[string]float64{}
	for _, row := range rep.Strings() {
		vals[row[0]+"/l"+row[1]] = atofOrZero(row[3])
	}
	// Scalability ordering at radix 36, 3 levels: OFT > RFC > CFT.
	if !(vals["OFT/l3"] > vals["RFC/l3"] && vals["RFC/l3"] > vals["CFT/l3"]) {
		t.Errorf("scalability ordering violated: OFT=%v RFC=%v CFT=%v",
			vals["OFT/l3"], vals["RFC/l3"], vals["CFT/l3"])
	}
	// RFC within the same order of magnitude as the RRN (paper: "really
	// close").
	if vals["RRN/l3"] < vals["RFC/l3"] || vals["RRN/l3"] > 3*vals["RFC/l3"] {
		t.Errorf("RRN/RFC scalability gap unexpected: %v vs %v", vals["RRN/l3"], vals["RFC/l3"])
	}
}

func atofOrZero(s string) float64 {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0
	}
	return v
}

func TestFig7Report(t *testing.T) {
	rep := Fig7Expandability(36, 50000, 20)
	var cftCosts, rfcCosts []float64
	var rfcTs []float64
	for _, row := range rep.Strings() {
		switch row[0] {
		case "CFT":
			cftCosts = append(cftCosts, atofOrZero(row[2]))
		case "RFC":
			rfcCosts = append(rfcCosts, atofOrZero(row[2]))
			rfcTs = append(rfcTs, atofOrZero(row[1]))
		}
	}
	if len(cftCosts) == 0 || len(rfcCosts) == 0 {
		t.Fatal("missing series")
	}
	// RFC cost is never above CFT cost at the same terminal count, and the
	// RFC curve is monotone (near-linear), while the CFT curve has steps.
	for i := range rfcCosts {
		if rfcCosts[i] > cftCosts[i] {
			t.Errorf("RFC cost %v above CFT cost %v at T=%v", rfcCosts[i], cftCosts[i], rfcTs[i])
		}
		if i > 0 && rfcCosts[i] < rfcCosts[i-1] {
			t.Errorf("RFC cost not monotone at index %d", i)
		}
	}
}

func TestCostsReport(t *testing.T) {
	rep := Costs()
	text := rep.Format()
	// §5's quoted savings at maximum expansion.
	if !strings.Contains(text, "31% switches") || !strings.Contains(text, "36% wires") {
		t.Errorf("expected 31%%/36%% savings in:\n%s", text)
	}
	if !strings.Contains(text, "28135") || !strings.Contains(text, "405144") {
		t.Errorf("expected paper's RFC counts in:\n%s", text)
	}
}

func TestThm42Report(t *testing.T) {
	rep, err := Thm42(120, 30, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 3 {
		t.Fatalf("too few rows: %d", len(rep.Rows))
	}
	for _, row := range rep.Strings() {
		emp := atofOrZero(row[2])
		if emp < 0 || emp > 1 {
			t.Errorf("empirical probability %v out of range", emp)
		}
	}
	// Probabilities at the extremes of the sweep behave as the theorem
	// dictates.
	first := atofOrZero(rep.Strings()[0][2])
	last := atofOrZero(rep.Strings()[len(rep.Rows)-1][2])
	if first > 0.4 {
		t.Errorf("lowest radix empirical = %v, want near 0", first)
	}
	if last < 0.6 {
		t.Errorf("highest radix empirical = %v, want near 1", last)
	}
}

func TestTable3Small(t *testing.T) {
	rep, err := Table3Disconnect(Table3Options{Targets: []int{512, 1024}, Trials: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	// Row for 1024 has all four topologies; percentages in (0, 100).
	row := rep.Strings()[1]
	for i := 1; i < len(row); i++ {
		v := atofOrZero(strings.Split(row[i], "%")[0])
		if v <= 0 || v >= 100 {
			t.Errorf("cell %q out of range", row[i])
		}
	}
	// Paper shape at T≈1024: OFT is by far the least fault tolerant; the
	// RFC tolerates fewer removals than CFT/RRN (it uses a smaller radix).
	get := func(i int) float64 { return atofOrZero(strings.Split(row[i], "%")[0]) }
	cft, rrn, rfc, oft := get(1), get(2), get(3), get(4)
	if !(oft < rfc && oft < cft && oft < rrn) {
		t.Errorf("OFT should be least tolerant: cft=%v rrn=%v rfc=%v oft=%v", cft, rrn, rfc, oft)
	}
	if rfc >= cft {
		t.Errorf("RFC (smaller radix) should tolerate less than CFT: %v vs %v", rfc, cft)
	}
}

func TestFig11Small(t *testing.T) {
	rep, err := Fig11UpDownFaults(Fig11Options{Radix: 8, Trials: 2, MaxLeavesCap: 60, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty report")
	}
	sawRFC3 := false
	for _, row := range rep.Strings() {
		y := atofOrZero(row[2])
		if y < 0 || y > 1 {
			t.Errorf("tolerated fraction %v out of range (%v)", y, row)
		}
		if row[0] == "RFC-3L" && y > 0 {
			sawRFC3 = true
		}
	}
	if !sawRFC3 {
		t.Error("no positive-tolerance RFC-3L point")
	}
}

func TestScenarioSweepTiny(t *testing.T) {
	sc := Scenario{
		Name: "tiny",
		CFT:  CFTSpec{Radix: 8, Levels: 3, TermsPerLeaf: 4},
		RFC:  core.Params{Radix: 8, Levels: 3, Leaves: 32},
	}
	opts := SimOptions{
		Loads: []float64{0.2, 0.6},
		Reps:  1,
		Sim:   simnet.Config{WarmupCycles: 300, MeasureCycles: 1000},
		Seed:  11,
	}
	rep, err := ScenarioSweep(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 2 networks × 3 patterns × 2 loads × 2 series (thr+lat) = 24 rows.
	if len(rep.Rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(rep.Rows))
	}
	// At 20% offered load, uniform throughput should track the offer.
	for _, row := range rep.Strings() {
		if strings.Contains(row[0], "uniform/throughput") && row[1] == "0.2" {
			if y := atofOrZero(row[2]); y < 0.17 || y > 0.22 {
				t.Errorf("%s at 0.2 offered: accepted %v", row[0], y)
			}
		}
	}
}

func TestFig12Tiny(t *testing.T) {
	rep, err := Fig12FaultThroughput(Fig12Options{
		Scale:      ScaleSmall,
		FaultSteps: 2,
		Reps:       1,
		Sim:        simnet.Config{WarmupCycles: 200, MeasureCycles: 500},
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2*3*3 { // 2 nets × 3 patterns × 3 fault points
		t.Fatalf("rows = %d, want 18", len(rep.Rows))
	}
	for _, row := range rep.Strings() {
		y := atofOrZero(row[2])
		if y < 0 || y > 1.1 {
			t.Errorf("accepted load %v out of range", y)
		}
	}
}

func TestRRNFaultsTiny(t *testing.T) {
	rep, err := RRNFaults(RRNFaultsOptions{
		Scale:      ScaleSmall,
		FaultSteps: 2,
		Reps:       1,
		Sim:        simnet.Config{WarmupCycles: 200, MeasureCycles: 500},
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2*2*3 { // 2 nets × 2 patterns × 3 fault points
		t.Fatalf("rows = %d, want 12", len(rep.Rows))
	}
	seenRRN := false
	for _, row := range rep.Strings() {
		y := atofOrZero(row[2])
		if y < 0 || y > 1.1 {
			t.Errorf("accepted load %v out of range", y)
		}
		if strings.HasPrefix(row[0], "RRN") {
			seenRRN = true
			// The fault-free direct network must actually route (not every
			// point scores 0 through the unified engine).
			if row[1] == "0" && y <= 0 {
				t.Errorf("fault-free RRN point accepted %v, want > 0", y)
			}
		}
	}
	if !seenRRN {
		t.Error("no RRN series in the report")
	}
}

func TestScenariosWellFormed(t *testing.T) {
	for _, scale := range []Scale{ScaleSmall, ScalePaper} {
		for _, sc := range Scenarios(scale) {
			if err := sc.RFC.Validate(); err != nil {
				t.Errorf("%s/%s RFC params: %v", scale, sc.Name, err)
			}
			if sc.AltRFC != nil {
				if err := sc.AltRFC.Validate(); err != nil {
					t.Errorf("%s/%s alt RFC params: %v", scale, sc.Name, err)
				}
			}
			// Equal-terminal scenarios: RFC within 2% of the CFT.
			cftT, rfcT := float64(sc.CFT.Terminals()), float64(sc.RFC.Terminals())
			if rfcT < cftT*0.95 || rfcT > cftT*1.05 {
				t.Errorf("%s/%s terminal mismatch: CFT %v vs RFC %v", scale, sc.Name, cftT, rfcT)
			}
		}
	}
	// The paper-scale scenarios carry the exact §6 sizes.
	paper := Scenarios(ScalePaper)
	if paper[0].CFT.Terminals() != 11664 || paper[0].RFC.Terminals() != 11664 {
		t.Error("paper 11K scenario sizes wrong")
	}
	if paper[2].RFC.Terminals() != 202572 {
		t.Error("paper 200K RFC size wrong")
	}
}

func TestFig7MatchesConstructedNetworks(t *testing.T) {
	// Cross-validate the analytic Figure 7 port counts against networks
	// actually built at the same sizes.
	rep := Fig7Expandability(8, 500, 10)
	r := rng.New(9)
	for _, row := range rep.Strings() {
		tcount := int(atofOrZero(row[1]))
		ports := int(atofOrZero(row[2]))
		switch row[0] {
		case "CFT":
			// Find the level count the analytic row used.
			for l := 2; l <= 6; l++ {
				if cftTerminals(8, l) >= tcount {
					c, err := topology.NewCFT(8, l)
					if err != nil {
						t.Fatal(err)
					}
					want := 2*c.Wires() + tcount
					if ports != want {
						t.Errorf("CFT T=%d: analytic %d ports, constructed %d", tcount, ports, want)
					}
					break
				}
			}
		case "RFC":
			for l := 2; l <= 6; l++ {
				if core.MaxTerminals(8, l) >= tcount {
					p := core.ParamsForTerminals(8, l, tcount)
					c, err := core.Generate(p, r)
					if err != nil {
						t.Fatal(err)
					}
					want := 2*c.Wires() + tcount
					if ports != want {
						t.Errorf("RFC T=%d: analytic %d ports, constructed %d", tcount, ports, want)
					}
					break
				}
			}
		}
	}
}

func TestReportCSV(t *testing.T) {
	rep := &Report{Header: []string{"a", "b"}}
	rep.AddRow(Str("1"), Str("x,y"))
	rep.AddRow(Str("2"), Str(`q"z`))
	csv := rep.CSV()
	want := "a,b\n1,\"x,y\"\n2,\"q\"\"z\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}
