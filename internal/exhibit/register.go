package exhibit

import (
	"fmt"
	"strconv"

	"rfclos/internal/analysis"
)

// The shapes the entries below pin, each read by both Run and the help.
const (
	paperRadix                        = 36 // the paper's commodity radix
	fig7Points                        = 40
	thm42Leaves                       = 300
	fig11Radix, fig11MaxLeaves        = 12, 1200
	faultSteps                        = 10 // fig12 and rrnfaults
	ablationLoad                      = 0.9
	structureTarget, structureSamples = 1024, 200
	tablesPaths                       = 8
)

var fig6Radices, table3Targets = []int{8, 12, 16, 24, 36, 48, 64}, []int{512, 1024, 2048, 4096, 8192}

// scenarioSweep builds the fig8/9/10 entry for one §6 scenario, run on the
// cycle engine or the flow-level solver as Params.Backend selects.
func scenarioSweep(id string, scenario int, title string) Exhibit {
	return Exhibit{ID: id, Kind: Sim, Defaults: analysis.ScenarioDefaults, Title: title, Run: func(p analysis.Params) (*Result, error) {
		sc := analysis.Scenarios(p.Scale)[scenario]
		switch p.Backend {
		case "", "cycle":
			return analysis.ScenarioSweep(sc, p)
		case "flow":
			return analysis.FlowScenarioSweep(sc, p)
		default:
			return nil, fmt.Errorf("exhibit: unknown backend %q (cycle|flow)", p.Backend)
		}
	}}
}

// flowWorkload builds a flow-only exhibit entry: the equal-resources
// scenario's networks under one pinned traffic matrix, the exhibit's
// identity, so Params.Patterns and its default are deliberately ignored.
func flowWorkload(id, matrix, title string) Exhibit {
	d := analysis.ScenarioDefaults
	d.Patterns = nil
	return Exhibit{ID: id, Kind: Flow, Defaults: d, Title: title, Run: func(p analysis.Params) (*Result, error) {
		p.Patterns = []string{matrix}
		return analysis.FlowScenarioSweep(analysis.Scenarios(p.Scale)[0], p)
	}}
}

func init() {
	register(Exhibit{
		ID: "fig5", Kind: Analytic, Shapes: func() string { return "radix=" + strconv.Itoa(paperRadix) },
		Title: "Figure 5: diameter each topology needs as terminals grow",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Fig5Diameter(paperRadix), nil },
	})
	register(Exhibit{
		ID: "fig6", Kind: Analytic, Shapes: func() string { return "radices=" + list[int](fig6Radices).String() },
		Title: "Figure 6: scalability, terminals vs radix for 2-4 levels",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Fig6Scalability(fig6Radices), nil },
	})
	register(Exhibit{
		ID: "fig7", Kind: Analytic, Shapes: func() string { return "radix=" + strconv.Itoa(paperRadix) + " points=" + strconv.Itoa(fig7Points) },
		Title: "Figure 7: expandability, total ports vs terminals",
		Run: func(analysis.Params) (*Result, error) {
			return analysis.Fig7Expandability(paperRadix, 0, fig7Points), nil
		},
	})
	register(Exhibit{
		ID: "costs", Kind: Analytic, Shapes: func() string { return "radix=" + strconv.Itoa(paperRadix) + ", paper scale" },
		Title: "§5 cost comparison: switches and wires vs the CFT",
		Run:   func(analysis.Params) (*Result, error) { return analysis.Costs(), nil },
	})
	register(Exhibit{
		ID: "thm42", Kind: Analytic, Defaults: analysis.Thm42Defaults, Shapes: func() string { return "n1=" + strconv.Itoa(thm42Leaves) },
		Title: "Theorem 4.2 Monte-Carlo routability check",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Thm42(p, thm42Leaves) },
	})
	register(scenarioSweep("fig8", 0, "Figure 8: latency & throughput, equal-resources scenario"))
	register(scenarioSweep("fig9", 1, "Figure 9: latency & throughput, 100K-terminal scenario"))
	register(scenarioSweep("fig10", 2, "Figure 10: latency & throughput, maximum-size scenario"))
	register(Exhibit{
		ID: "fig11", Kind: Resiliency, Defaults: analysis.Fig11Defaults, Shapes: func() string { return "radix=" + strconv.Itoa(fig11Radix) },
		Title: "Figure 11: up/down fault tolerance across sizes",
		Run: func(p analysis.Params) (*Result, error) {
			return analysis.Fig11UpDownFaults(p, fig11Radix, fig11MaxLeaves)
		},
	})
	register(Exhibit{
		ID: "fig12", Kind: Resiliency, Defaults: analysis.Fig12Defaults, Shapes: func() string { return "steps=" + strconv.Itoa(faultSteps) },
		Title: "Figure 12: max throughput as links fail",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Fig12FaultThroughput(p, faultSteps) },
	})
	register(Exhibit{
		ID: "ablation", Kind: Sim, Defaults: analysis.AblationDefaults, Shapes: func() string { return "load=" + list[float64]{ablationLoad}.String() },
		Title: "Ablations: simulator design knobs on the RFC",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Ablations(p, ablationLoad) },
	})
	register(Exhibit{
		ID: "structure", Kind: Analytic, Shapes: func() string {
			return "target=" + strconv.Itoa(structureTarget) + " samples=" + strconv.Itoa(structureSamples)
		},
		Title: "Structural comparison: diameter, bisection, path diversity",
		Run: func(p analysis.Params) (*Result, error) {
			return analysis.Structure(p, structureTarget, structureSamples)
		},
	})
	register(Exhibit{
		ID: "adversarial", Kind: Sim, Defaults: analysis.AdversarialDefaults,
		Title: "Adversarial shift permutation at full load",
		Run:   analysis.Adversarial,
	})
	register(Exhibit{
		ID: "tables", Kind: Analytic, Defaults: analysis.TablesDefaults, Shapes: func() string { return "k=" + strconv.Itoa(tablesPaths) },
		Title: "Forwarding-state comparison vs Jellyfish k-paths",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.TablesReport(p, tablesPaths) },
	})
	register(Exhibit{
		ID: "jellyfish", Kind: Sim, Defaults: analysis.JellyfishDefaults,
		Title: "Extension: RFC vs Jellyfish-style RRNs, uniform traffic",
		Run:   analysis.Jellyfish,
	})
	register(Exhibit{
		ID: "rrnfaults", Kind: Resiliency, Defaults: analysis.RRNFaultsDefaults, Shapes: func() string { return "steps=" + strconv.Itoa(faultSteps) },
		Title: "Extension: throughput under faults, RFC vs RRN",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.RRNFaults(p, faultSteps) },
	})
	register(flowWorkload("hotspot", "hotspot", "Flow backend: hotspot traffic, equal-resources scenario"))
	register(flowWorkload("incast", "incast", "Flow backend: incast fan-in traffic, equal-resources scenario"))
	register(flowWorkload("elephants", "elephant-mice", "Flow backend: elephant-and-mice traffic, equal-resources scenario"))
	register(flowWorkload("storm", "storm", "Flow backend: permutation storms, equal-resources scenario"))
	register(Exhibit{
		ID: "flowscale", Kind: Flow, Defaults: analysis.FlowScaleDefaults,
		Title: "Flow backend: RFC vs RRN vs XGFT at 10× scenario scale",
		Run:   analysis.FlowScale,
	})
	register(Exhibit{
		ID: "table3", Kind: Resiliency, Defaults: analysis.Table3Defaults, Shapes: func() string { return "targets=" + list[int](table3Targets).String() },
		Title: "Table 3: % of links removed to disconnect each topology",
		Run:   func(p analysis.Params) (*Result, error) { return analysis.Table3Disconnect(p, table3Targets) },
	})
}
