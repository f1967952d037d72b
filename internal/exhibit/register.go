package exhibit

import (
	"fmt"

	"rfclos/internal/analysis"
)

// paperRadix is the paper's commodity radix for the analytic exhibits.
const paperRadix = 36

// scenarioSweep builds the fig8/9/10 runner for one §6 scenario index,
// dispatching on Params.Backend between the cycle engine and the flow-level
// solver.
func scenarioSweep(scenario int) func(analysis.Params) (*Result, error) {
	return func(p analysis.Params) (*Result, error) {
		sc := analysis.Scenarios(p.Scale)[scenario]
		switch p.Backend {
		case "", "cycle":
			return analysis.ScenarioSweep(sc, p)
		case "flow":
			return analysis.FlowScenarioSweep(sc, p)
		default:
			return nil, fmt.Errorf("exhibit: unknown backend %q (cycle|flow)", p.Backend)
		}
	}
}

// flowWorkload builds a flow-only exhibit runner: the equal-resources
// scenario's networks under one pinned traffic matrix. The matrix is the
// exhibit's identity, so Params.Patterns is deliberately ignored.
func flowWorkload(matrix string) func(analysis.Params) (*Result, error) {
	return func(p analysis.Params) (*Result, error) {
		p.Patterns = []string{matrix}
		return analysis.FlowScenarioSweep(analysis.Scenarios(p.Scale)[0], p)
	}
}

func init() {
	register(Exhibit{
		ID: "fig5", Kind: Analytic, Defaults: "radix=36",
		Title: "Figure 5: diameter each topology needs as terminals grow",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Fig5Diameter(paperRadix), nil },
	})
	register(Exhibit{
		ID: "fig6", Kind: Analytic, Defaults: "radices=8..64",
		Title: "Figure 6: scalability, terminals vs radix for 2-4 levels",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Fig6Scalability(nil), nil },
	})
	register(Exhibit{
		ID: "fig7", Kind: Analytic, Defaults: "radix=36 points=40",
		Title: "Figure 7: expandability, total ports vs terminals",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Fig7Expandability(paperRadix, 0, 40), nil },
	})
	register(Exhibit{
		ID: "costs", Kind: Analytic, Defaults: "radix=36, paper scale",
		Title: "§5 cost comparison: switches and wires vs the CFT",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Costs(), nil },
	})
	register(Exhibit{
		ID: "thm42", Kind: Analytic, Defaults: "n1=300 trials=100",
		Title: "Theorem 4.2 Monte-Carlo routability check",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Thm42(p, 300) },
	})
	register(Exhibit{
		ID: "fig8", Kind: Sim, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Figure 8: latency & throughput, equal-resources scenario",
		Run:   scenarioSweep(0),
	})
	register(Exhibit{
		ID: "fig9", Kind: Sim, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Figure 9: latency & throughput, 100K-terminal scenario",
		Run:   scenarioSweep(1),
	})
	register(Exhibit{
		ID: "fig10", Kind: Sim, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Figure 10: latency & throughput, maximum-size scenario",
		Run:   scenarioSweep(2),
	})
	register(Exhibit{
		ID: "fig11", Kind: Resiliency, Defaults: "radix=12 trials=5",
		Title: "Figure 11: up/down fault tolerance across sizes",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Fig11UpDownFaults(p, 12, 1200) },
	})
	register(Exhibit{
		ID: "fig12", Kind: Resiliency, Defaults: "scale=small steps=10 reps=2",
		Title: "Figure 12: max throughput as links fail",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Fig12FaultThroughput(p, 10) },
	})
	register(Exhibit{
		ID: "ablation", Kind: Sim, Defaults: "scale=small load=0.9 reps=2",
		Title: "Ablations: simulator design knobs on the RFC",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Ablations(p, 0.9) },
	})
	register(Exhibit{
		ID: "structure", Kind: Analytic, Defaults: "target=1024 samples=200",
		Title: "Structural comparison: diameter, bisection, path diversity",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Structure(p, 1024, 200) },
	})
	register(Exhibit{
		ID: "adversarial", Kind: Sim, Defaults: "scale=small reps=2",
		Title: "Adversarial shift permutation at full load",
		Run:   analysis.Adversarial,
	})
	register(Exhibit{
		ID: "tables", Kind: Analytic, Defaults: "scale=small k=8",
		Title: "Forwarding-state comparison vs Jellyfish k-paths",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.TablesReport(p, 8) },
	})
	register(Exhibit{
		ID: "jellyfish", Kind: Sim, Defaults: "scale=small loads=0.3,0.6,0.9,1.0 reps=2",
		Title: "Extension: RFC vs Jellyfish-style RRNs, uniform traffic",
		Run:   analysis.Jellyfish,
	})
	register(Exhibit{
		ID: "rrnfaults", Kind: Resiliency, Defaults: "scale=small steps=10 reps=2",
		Title: "Extension: throughput under faults, RFC vs RRN",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.RRNFaults(p, 10) },
	})
	register(Exhibit{
		ID: "hotspot", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: hotspot traffic, equal-resources scenario",
		Run:   flowWorkload("hotspot"),
	})
	register(Exhibit{
		ID: "incast", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: incast fan-in traffic, equal-resources scenario",
		Run:   flowWorkload("incast"),
	})
	register(Exhibit{
		ID: "elephants", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: elephant-and-mice traffic, equal-resources scenario",
		Run:   flowWorkload("elephant-mice"),
	})
	register(Exhibit{
		ID: "storm", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3",
		Title: "Flow backend: permutation storms, equal-resources scenario",
		Run:   flowWorkload("storm"),
	})
	register(Exhibit{
		ID: "flowscale", Kind: Flow, Defaults: "scale=small loads=0.1..1.0 reps=3 patterns=uniform,storm",
		Title: "Flow backend: RFC vs RRN vs XGFT at 10× scenario scale",
		Run:   analysis.FlowScale,
	})
	register(Exhibit{
		ID: "table3", Kind: Resiliency, Defaults: "targets=512..8192 trials=100",
		Title: "Table 3: % of links removed to disconnect each topology",
		Run: func(p analysis.Params) (*Result, error) {
			return analysis.Table3Disconnect(p, []int{512, 1024, 2048, 4096, 8192})
		},
	})
}
