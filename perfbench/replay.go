package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"time"
)

// traced is the -trace 1 run. It replays all three workloads in process,
// recording a span around every call the benchmark makes into a layer, so
// every per-layer metric gets a value whichever -workload was named. Each
// replay also checks that it did the same work as the untraced program:
// the rfcd-query replay reproduces rfcd's response bytes, the exhibit
// replays reproduce rfcpaper's report bytes.
func traced(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	steps := []struct {
		name string
		run  func(context.Context, env, *outcome, *tracer) error
	}{
		{"rfcd-query", traceQuery},
		{"paper-fig12", traceFig12},
		{"paper-flowscale", traceFlowScale},
	}
	for _, st := range steps {
		tr := newTracer()
		if err := st.run(ctx, e, o, tr); err != nil {
			return nil, fmt.Errorf("%s replay: %w", st.name, err)
		}
		spans := tr.snapshot()
		path := filepath.Join(e.work, fmt.Sprintf("spans-%s-seed%d.jsonl", st.name, e.seed))
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		breakdown(o, st.name, spans)
	}
	return o, nil
}

// breakdownLayers fixes, per workload, the layers whose self time the
// traced run reports, so every run prints the same metric names.
var breakdownLayers = map[string][]string{
	"rfcd-query":      {"topology", "core", "routing", "graph", "traffic", "flow", "service"},
	"paper-fig12":     {"topology", "core", "routing", "traffic", "simnet", "simcore", "analysis"},
	"paper-flowscale": {"topology", "core", "routing", "traffic", "flow", "analysis"},
}

// rerunWorkloads are the replays that repeat calls (see rerunSpan); they
// also report the repeats' time, which the untraced program never spends.
var rerunWorkloads = map[string]bool{"rfcd-query": true, "paper-flowscale": true}

// breakdown reports a replay's wall time (its root span), the self time of
// each layer, and the summed self time of all layers: with parallel
// replays (the exhibits run their job grid on workers() goroutines) the sum
// approaches wall × workers.
func breakdown(o *outcome, workload string, spans []span) {
	self := selfTimes(spans)
	byLayer := make(map[string]time.Duration)
	for name, d := range self {
		byLayer[layerOf(name)] += d
	}
	var sum time.Duration
	for _, layer := range breakdownLayers[workload] {
		sum += byLayer[layer]
		o.set(workload+".self."+layer+"_ms", "ms", ms(byLayer[layer]), nil)
	}
	o.set(workload+".self.sum_ms", "ms", ms(sum), nil)
	if rerunWorkloads[workload] {
		o.set(workload+".self.replay_ms", "ms", ms(byLayer[layerOf(rerunSpan)]), nil)
	}
	for _, s := range spans {
		if s.Parent == noParent && s.Name == workload {
			o.set(workload+".trace_wall_ms", "ms", ms(s.dur()), nil)
		}
	}
	// Print the breakdown, largest layer first, for people reading the log.
	names := make([]string, 0, len(byLayer))
	for l := range byLayer {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return byLayer[names[i]] > byLayer[names[j]] })
	fmt.Printf("# %s self time by layer:", workload)
	for _, l := range names {
		fmt.Printf(" %s=%.1fms", l, ms(byLayer[l]))
	}
	fmt.Println()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// medianDur returns the median of durations, converted by unit.
func medianDur(ds []time.Duration, unit func(time.Duration) float64) float64 {
	return quantileDur(ds, 0.5, unit)
}

// quantileDur returns the q-quantile of durations, converted by unit.
func quantileDur(ds []time.Duration, q float64, unit func(time.Duration) float64) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = unit(d)
	}
	sort.Float64s(v)
	return quantile(v, q)
}
