package analysis

// Worker and shard invariance at the analysis layer for the exhibit runners
// whose option surfaces are richest (scenario sweeps, Table 3, Theorem 4.2,
// flow sweeps). The registry-wide determinism matrix in internal/exhibit
// covers every registered exhibit at its registered shapes; these tests pin
// the same contract on the runners directly, at shapes (e.g. a tiny
// scenario, two loads, two reps, 8 workers) the matrix does not use.

import (
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/engine"
)

// reportText renders a report the way cmd/rfcpaper prints it; comparing the
// formatted text catches any divergence, including row order.
func reportText(t *testing.T, run func() (*Report, error)) string {
	t.Helper()
	rep, err := run()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Format()
}

func tinyScenario() Scenario {
	return Scenario{
		Name: "tiny",
		CFT:  CFTSpec{Radix: 8, Levels: 3, TermsPerLeaf: 4},
		RFC:  core.Params{Radix: 8, Levels: 3, Leaves: 32},
	}
}

func tinySimParams(sh engine.Shard) Params {
	return Params{
		Loads:    []float64{0.2, 0.6},
		Reps:     2,
		Patterns: []string{"uniform"},
		Cycles:   300,
		Seed:     21,
		Shard:    sh,
	}
}

func tinyFlowParams(sh engine.Shard) Params {
	return Params{
		Loads:    []float64{0.3, 0.9},
		Reps:     2,
		Patterns: []string{"uniform", "hotspot"},
		Seed:     23,
		Shard:    sh,
	}
}

// assertWorkerInvariance runs an exhibit at workers=1 and workers=8 and
// requires byte-identical reports.
func assertWorkerInvariance(t *testing.T, name string, run func(workers int) (*Report, error)) {
	t.Helper()
	serial := reportText(t, func() (*Report, error) { return run(1) })
	parallel := reportText(t, func() (*Report, error) { return run(8) })
	if serial != parallel {
		t.Errorf("%s differs between workers=1 and workers=8:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s",
			name, serial, parallel)
	}
}

// assertShardMerge checks the sharding contract end-to-end for one exhibit
// runner: for 2-way and 3-way partitions, running every shard, serializing
// each partial through the JSON wire format (the rfcmerge path) and merging
// reproduces the unsharded run's Format() byte-for-byte.
func assertShardMerge(t *testing.T, name string, run func(engine.Shard) (*Report, error)) {
	t.Helper()
	full, err := run(engine.Shard{})
	if err != nil {
		t.Fatalf("%s unsharded: %v", name, err)
	}
	want := full.Format()
	for _, n := range []int{2, 3} {
		var parts []*Report
		for k := 0; k < n; k++ {
			p, err := run(engine.Shard{K: k, N: n})
			if err != nil {
				t.Fatalf("%s shard %d/%d: %v", name, k, n, err)
			}
			data, err := p.JSON()
			if err != nil {
				t.Fatalf("%s shard %d/%d JSON: %v", name, k, n, err)
			}
			back, err := ParseReport(data)
			if err != nil {
				t.Fatalf("%s shard %d/%d parse: %v", name, k, n, err)
			}
			parts = append(parts, back)
		}
		merged, err := MergeReports(parts...)
		if err != nil {
			t.Fatalf("%s merge %d shards: %v", name, n, err)
		}
		if missing := merged.MissingObs(); missing != 0 {
			t.Errorf("%s merge %d shards: %d observations missing", name, n, missing)
		}
		if got := merged.Format(); got != want {
			t.Errorf("%s: %d-shard merge differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				name, n, want, got)
		}
	}
}

func TestScenarioSweepWorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "ScenarioSweep", func(workers int) (*Report, error) {
		p := tinySimParams(engine.Shard{})
		p.Workers = workers
		return ScenarioSweep(tinyScenario(), p)
	})
}

func TestTable3WorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "Table3Disconnect", func(workers int) (*Report, error) {
		return Table3Disconnect(Params{Trials: 8, Seed: 25, Workers: workers}, []int{256})
	})
}

func TestThm42WorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "Thm42", func(workers int) (*Report, error) {
		return Thm42(Params{Trials: 12, Seed: 27, Workers: workers}, 60)
	})
}

func TestFlowScenarioSweepWorkerInvariance(t *testing.T) {
	assertWorkerInvariance(t, "FlowScenarioSweep", func(workers int) (*Report, error) {
		p := tinyFlowParams(engine.Shard{})
		p.Workers = workers
		return FlowScenarioSweep(tinyScenario(), p)
	})
}

func TestScenarioSweepShardMerge(t *testing.T) {
	assertShardMerge(t, "ScenarioSweep", func(sh engine.Shard) (*Report, error) {
		return ScenarioSweep(tinyScenario(), tinySimParams(sh))
	})
}

func TestTable3ShardMerge(t *testing.T) {
	assertShardMerge(t, "Table3Disconnect", func(sh engine.Shard) (*Report, error) {
		return Table3Disconnect(Params{Trials: 8, Seed: 25, Shard: sh}, []int{256})
	})
}

func TestThm42ShardMerge(t *testing.T) {
	assertShardMerge(t, "Thm42", func(sh engine.Shard) (*Report, error) {
		return Thm42(Params{Trials: 12, Seed: 27, Shard: sh}, 60)
	})
}

func TestFlowScenarioSweepShardMerge(t *testing.T) {
	assertShardMerge(t, "FlowScenarioSweep", func(sh engine.Shard) (*Report, error) {
		return FlowScenarioSweep(tinyScenario(), tinyFlowParams(sh))
	})
}
