package flow_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simcore/goldencases"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// solveFlowCase runs the flow backend on one goldencases.Case.
func solveFlowCase(i int, fc goldencases.Case, workers int) (*flow.Result, error) {
	net, m, opts, err := flow.CrossvalInstance(i, fc, workers)
	if err != nil {
		return nil, err
	}
	return flow.Solve(net, m, opts)
}

// formatCrossval renders one golden line per case.
func formatCrossval(fc goldencases.Case, res *flow.Result) string {
	return fmt.Sprintf("%s flows=%d unroutable=%d accepted=%.6f min=%.6f mean=%.6f jain=%.4f rounds=%d\n",
		fc.Name, res.Flows, res.Unroutable, res.Accepted, res.MinRate, res.MeanRate, res.Jain, res.Rounds)
}

// TestCrossvalGolden pins the flow backend's output on the 14 flow golden
// points (12 of them shared with simcore's goldens), byte for byte, at two
// worker counts (worker invariance rides along). Refresh with UPDATE_FLOW_GOLDEN=1.
func TestCrossvalGolden(t *testing.T) {
	var got string
	for i, fc := range goldencases.Cases() {
		res1, err := solveFlowCase(i, fc, 1)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name, err)
		}
		resN, err := solveFlowCase(i, fc, 6)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name, err)
		}
		line1, lineN := formatCrossval(fc, res1), formatCrossval(fc, resN)
		if line1 != lineN {
			t.Fatalf("%s: output differs across worker counts:\n%s%s", fc.Name, line1, lineN)
		}
		got += line1
	}
	path := filepath.Join("testdata", "crossval.txt")
	if os.Getenv("UPDATE_FLOW_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with UPDATE_FLOW_GOLDEN=1 to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("flow cross-validation output differs from golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestSimcoreOrderingAgreement cross-validates the two backends where both
// run: the three small golden networks under saturating uniform traffic
// must rank identically by per-terminal accepted throughput (ties within
// tolerance in either backend excuse a pair).
func TestSimcoreOrderingAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("cycle-engine cross-validation skipped under -short")
	}
	type point struct {
		name      string
		sim, flow float64
	}
	var pts []point

	// CFT(8,3) and RFC(8,3,16) on the indirect cycle engine.
	for _, cl := range []struct {
		name  string
		build func() (*topology.Clos, error)
	}{
		{"cft8x3", func() (*topology.Clos, error) { return topology.NewCFT(8, 3) }},
		{"rfc8x3x16", func() (*topology.Clos, error) {
			c, _, _, err := goldenRFC()
			return c, err
		}},
	} {
		c, err := cl.build()
		if err != nil {
			t.Fatal(err)
		}
		ud := routing.New(c)
		cfg := simnet.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 7}
		simRes := simnet.New(c, ud, traffic.NewUniform(c.Terminals()), cfg).Run(1.0)
		f, err := flowUniform(flow.NewClos(c, ud, nil))
		if err != nil {
			t.Fatal(err)
		}
		pts = append(pts, point{cl.name, simRes.AcceptedLoad, f})
	}
	// RRN(32,4,2) on the direct cycle engine.
	rrn, err := topology.NewRRN(32, 4, 2, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	cfg := simnet.Config{WarmupCycles: 200, MeasureCycles: 800, Seed: 5, VCs: 8}
	sim, err := simnet.NewRRN(rrn, traffic.NewUniform(rrn.Terminals()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	simRes := sim.Run(1.0)
	rn, err := flow.NewRRN(rrn, 0)
	if err != nil {
		t.Fatal(err)
	}
	f, err := flowUniform(rn)
	if err != nil {
		t.Fatal(err)
	}
	pts = append(pts, point{"rrn32x4x2", simRes.AcceptedLoad, f})

	const tie = 0.07
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			a, b := pts[i], pts[j]
			dSim, dFlow := a.sim-b.sim, a.flow-b.flow
			if (dSim > tie && dFlow < -tie) || (dSim < -tie && dFlow > tie) {
				t.Errorf("backends disagree on ordering %s vs %s: cycle %+.4f, flow %+.4f",
					a.name, b.name, dSim, dFlow)
			}
		}
	}
	t.Logf("ordering points: %+v", pts)
}

func goldenRFC() (*topology.Clos, *routing.UpDown, int, error) {
	for _, fc := range goldencases.Cases() {
		if fc.Name == "clos/rfc8x3x16/uniform/0.5" {
			c, err := fc.BuildClos()
			if err != nil {
				return nil, nil, 0, err
			}
			return c, nil, 0, nil
		}
	}
	return nil, nil, 0, fmt.Errorf("rfc golden case missing")
}

// flowUniform runs the flow backend at saturating uniform load.
func flowUniform(n flow.Network) (float64, error) {
	m := traffic.UniformMatrix(n.Terminals(), 4, rng.New(21))
	res, err := flow.Solve(n, m, flow.Options{Seed: 21, Workers: 0})
	if err != nil {
		return 0, err
	}
	return res.Accepted, nil
}
