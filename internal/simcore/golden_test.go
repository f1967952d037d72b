package simcore_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rfclos/internal/routing"
	"rfclos/internal/simcore/goldencases"
	"rfclos/internal/simnet"
)

// runCycle simulates one golden point on its front end.
func runCycle(c goldencases.Case) (simnet.Result, error) {
	if c.BuildClos != nil {
		n, err := c.BuildClos()
		if err != nil {
			return simnet.Result{}, err
		}
		return simnet.New(n, routing.New(n), c.Pattern(n.Terminals()), *c.Cycle).Run(c.Load), nil
	}
	rrn, err := c.BuildRRN()
	if err != nil {
		return simnet.Result{}, err
	}
	s, err := simnet.NewRRN(rrn, c.Pattern(rrn.Terminals()), *c.Cycle)
	if err != nil {
		return simnet.Result{}, err
	}
	return s.Run(c.Load), nil
}

// goldenEntry is one testdata/golden.json record.
type goldenEntry struct {
	Name   string
	Result simnet.Result
}

// TestGoldenResults pins the unified engine, on every golden point with a
// cycle configuration, to the fixed-seed Results the pre-unification
// folded-Clos and direct-network simulators produced, byte for byte
// (testdata/golden.json, captured before the engines were merged). A
// failure means a change altered simulation behaviour — RNG consumption
// order, arbitration scan order, event scheduling — not just structure.
// Regenerate the snapshots only for an intentional behaviour change:
//
//	UPDATE_SIMCORE_GOLDEN=1 go test -run '^TestGoldenResults$' ./internal/simcore/
func TestGoldenResults(t *testing.T) {
	var cases []goldencases.Case
	for _, c := range goldencases.Cases() {
		if c.Cycle != nil {
			cases = append(cases, c)
		}
	}
	path := filepath.Join("testdata", "golden.json")
	if os.Getenv("UPDATE_SIMCORE_GOLDEN") != "" {
		entries := make([]goldenEntry, len(cases))
		for i, c := range cases {
			res, err := runCycle(c)
			if err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			entries[i] = goldenEntry{c.Name, res}
		}
		out, err := json.MarshalIndent(entries, "", "\t")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden snapshots: %v", err)
	}
	var entries []goldenEntry
	if err := json.Unmarshal(raw, &entries); err != nil {
		t.Fatalf("parsing golden snapshots: %v", err)
	}
	if len(entries) != len(cases) {
		t.Fatalf("golden.json has %d entries, goldencases defines %d cycle points", len(entries), len(cases))
	}
	for i, c := range cases {
		t.Run(c.Name, func(t *testing.T) {
			if entries[i].Name != c.Name {
				t.Fatalf("case order drifted: golden.json[%d] = %q, cycle point %d = %q",
					i, entries[i].Name, i, c.Name)
			}
			got, err := runCycle(c)
			if err != nil {
				t.Fatalf("running case: %v", err)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := json.Marshal(entries[i].Result)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("Result diverged from pre-refactor snapshot\n got: %s\nwant: %s", gotJSON, wantJSON)
			}
		})
	}
}
