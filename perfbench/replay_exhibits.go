package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rfclos/internal/analysis"
	"rfclos/internal/core"
	"rfclos/internal/engine"
	"rfclos/internal/flow"
	"rfclos/internal/metrics"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simnet"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// exhibitRun runs the untraced rfcpaper once: the bytes the replay must
// reproduce, and the wall time the traced replay compares with. At the
// golden seed the output is also checked against the golden file.
func exhibitRun(ctx context.Context, e env, o *outcome, w exhibitWorkload) ([]byte, error) {
	out, u, err := runChild(ctx, e.root, e.prog("rfcpaper"), w.cmdArgs(e.seed, "-workers", strconv.Itoa(workers()))...)
	if err != nil {
		return nil, err
	}
	o.set(w.name+".untraced_ms", "ms", ms(u.wall), nil)
	if e.seed == goldenSeed {
		golden, err := os.ReadFile(filepath.Join(e.root, "internal", "exhibit", "testdata", "golden", w.id+".txt"))
		if err != nil {
			return nil, err
		}
		o.check(string(out) == string(golden), "%s: rfcpaper output differs from golden %s.txt", w.name, w.id)
	}
	return out, nil
}

// seriesReport renders (series, x, mean, stddev) rows the way the analysis
// layer's sweep exhibits do: series in the given order, coordinates in
// first-Expect order.
func seriesReport(title string, notes []string, xName, yName string, names []string, cols []*metrics.JobCollector) *analysis.Report {
	rep := &analysis.Report{Title: title, Notes: notes, Header: []string{"series", xName, yName, "stddev"}}
	for i, name := range names {
		for _, x := range cols[i].Coords() {
			obs, want := cols[i].At(x)
			rep.AddKeyed(fmt.Sprintf("%s@%g", name, x), analysis.Str(name), analysis.Float(x, "%g"),
				analysis.Mean(obs, want, "%.4f"), analysis.Std(obs, want, "%.4f"))
		}
	}
	return rep
}

// formatReport times Report.Format and checks the text against what
// rfcpaper printed.
func formatReport(o *outcome, tr *tracer, root int32, w exhibitWorkload, rep *analysis.Report, want []byte) {
	var text string
	d := tr.do("analysis.format", root, func(int32) { text = rep.Format() + "\n" })
	o.set(w.name+".format_ms", "ms", ms(d), nil)
	o.check(text == string(want), "%s: replayed report differs from rfcpaper's output", w.name)
}

// traceFig12 replays `rfcpaper -exhibit fig12 -scale small -cycles 400
// -reps 2`: the same networks, job grid and rng coordinates as
// analysis.Fig12FaultThroughput, on workers() goroutines.
func traceFig12(ctx context.Context, e env, o *outcome, tr *tracer) error {
	w := exhibitWorkloads["paper-fig12"]
	want, err := exhibitRun(ctx, e, o, w)
	if err != nil {
		return err
	}
	const steps, reps, cycles = 10, 2, 400
	root := tr.begin(w.name, noParent)
	sc := analysis.Scenarios(analysis.ScaleSmall)[0]
	var cft, rfc *topology.Clos
	if tr.do("topology.cft_build", root, func(int32) { cft, err = sc.CFT.Build() }); err != nil {
		return err
	}
	tr.do("core.generate", root, func(int32) {
		rfc, _, _, err = core.GenerateRoutable(sc.RFC, 50, rng.At(e.seed, rng.StringCoord("fig12/topology/RFC")))
	})
	if err != nil {
		return err
	}
	nets := []struct {
		name string
		c    *topology.Clos
	}{{fmt.Sprintf("CFT-R%d", sc.CFT.Radix), cft}, {fmt.Sprintf("RFC-R%d", sc.RFC.Radix), rfc}}
	type job struct {
		net         int
		pattern     string
		faults, rep int
	}
	var jobs []job
	for ni, n := range nets {
		step := max(1, n.c.Wires()*13/100/steps)
		for _, pat := range traffic.Names() {
			for f := 0; f <= steps; f++ {
				for rep := 0; rep < reps; rep++ {
					jobs = append(jobs, job{ni, pat, f * step, rep})
				}
			}
		}
	}
	type result struct {
		accepted            float64
		delivered           int
		clone, rebuild, run time.Duration
	}
	res, err := engine.Run(len(jobs), workers(), func(i int) (result, error) {
		j := jobs[i]
		n := nets[j.net]
		jid := tr.begin("analysis.job", root)
		defer tr.end(jid)
		stream := rng.At(e.seed, rng.StringCoord("fig12/"+n.name), rng.StringCoord(j.pattern),
			uint64(j.faults), uint64(j.rep))
		var r result
		var faulty *topology.Clos
		r.clone = tr.do("topology.clone_faults", jid, func(int32) {
			faulty = n.c.Clone()
			analysis.RemoveRandomLinks(faulty, j.faults, stream)
		})
		var ud *routing.UpDown
		r.rebuild = tr.do("routing.rebuild", jid, func(int32) { ud = routing.New(faulty) })
		var pat traffic.Pattern
		var err error
		if tr.do("traffic.pattern", jid, func(int32) { pat, err = traffic.New(j.pattern, faulty.Terminals(), stream) }); err != nil {
			return r, err
		}
		cfg := simnet.Config{MeasureCycles: cycles, WarmupCycles: cycles / 4, Seed: stream.Uint64()}
		var sim *simnet.Sim
		tr.do("simnet.new", jid, func(int32) { sim = simnet.New(faulty, ud, pat, cfg) })
		var out simnet.Result
		r.run = tr.do("simcore.run", jid, func(int32) { out = sim.Run(1.0) })
		r.accepted, r.delivered = out.AcceptedLoad, out.TotalDelivered
		return r, nil
	})
	if err != nil {
		return err
	}

	var rep *analysis.Report
	tr.do("analysis.report", root, func(int32) {
		per := (steps + 1) * reps
		var names []string
		var cols []*metrics.JobCollector
		for i, j := range jobs {
			if i%per == 0 {
				names = append(names, nets[j.net].name+"/"+j.pattern)
				cols = append(cols, &metrics.JobCollector{})
			}
			c := cols[i/per]
			c.Expect(float64(j.faults))
			c.Observe(float64(j.faults), i, res[i].accepted)
		}
		rep = seriesReport("Figure 12: max throughput under link faults (equal-resources scenario)",
			[]string{fmt.Sprintf("scale=%s; offered load 1.0; faults up to ~13%% of wires", analysis.ScaleSmall)},
			"faulty links", "accepted load", names, cols)
	})
	formatReport(o, tr, root, w, rep, want)
	tr.end(root)

	var clone, rebuild, run time.Duration
	packets := 0
	for _, r := range res {
		clone += r.clone
		rebuild += r.rebuild
		run += r.run
		packets += r.delivered
	}
	o.set("topology.clone_faults_ms", "ms", ms(clone), nil)
	o.set("routing.rebuild_ms", "ms", ms(rebuild), nil)
	o.set("simcore.run_ms", "ms", ms(run), nil)
	o.set("simcore.packets", "count", float64(packets), nil)
	o.set("simcore.ns_per_packet", "ns", float64(run.Nanoseconds())/float64(max(packets, 1)), nil)
	return nil
}

// traceFlowScale replays `rfcpaper -exhibit flowscale -scale small -reps 1
// -loads 0.5,1.0`: the networks of analysis.FlowScale at small scale and
// the job grid of its flow sweep, on workers() goroutines.
func traceFlowScale(ctx context.Context, e env, o *outcome, tr *tracer) error {
	w := exhibitWorkloads["paper-flowscale"]
	want, err := exhibitRun(ctx, e, o, w)
	if err != nil {
		return err
	}
	var (
		xs       = analysis.CFTSpec{Radix: 16, Levels: 4, TermsPerLeaf: 8}
		rp       = core.Params{Radix: 16, Levels: 4, Leaves: 1024}
		patterns = []string{"uniform", "storm"}
		loads    = []float64{0.5, 1.0}
	)
	const rrnN, rrnDeg, rrnTps, reps = 2048, 12, 4, 1
	root := tr.begin(w.name, noParent)
	var (
		xgft, rfc *topology.Clos
		xud, rud  *routing.UpDown
		rrn       *topology.RRN
		rrnNet    *flow.RRNNetwork
	)
	if tr.do("topology.cft_build", root, func(int32) { xgft, err = xs.Build() }); err != nil {
		return err
	}
	tr.do("core.generate", root, func(int32) {
		rfc, rud, _, err = core.GenerateRoutable(rp, 50, rng.At(e.seed, rng.StringCoord("flowscale/topology/RFC")))
	})
	if err != nil {
		return err
	}
	tr.do("topology.rrn_build", root, func(int32) {
		rrn, err = topology.NewRRN(rrnN, rrnDeg, rrnTps, rng.At(e.seed, rng.StringCoord("flowscale/topology/RRN")))
	})
	if err != nil {
		return err
	}
	tables := tr.do("flow.rrn_tables", root, func(int32) { rrnNet, err = flow.NewRRN(rrn, workers()) })
	if err != nil {
		return err
	}
	tr.do("routing.covers", root, func(int32) { xud = routing.New(xgft) })
	nets := []struct {
		name  string
		net   flow.Network
		terms int
	}{
		{fmt.Sprintf("XGFT-%dL-R%d", xs.Levels, xs.Radix), flow.NewClos(xgft, xud, nil), xgft.Terminals()},
		{fmt.Sprintf("RFC-%dL-R%d", rp.Levels, rp.Radix), flow.NewClos(rfc, rud, nil), rfc.Terminals()},
		{fmt.Sprintf("RRN-R%d", rrnDeg+rrnTps), rrnNet, rrn.Terminals()},
	}
	type job struct {
		net     int
		pattern string
		load    float64
		rep     int
	}
	var jobs []job
	for ni := range nets {
		for _, pat := range patterns {
			for _, load := range loads {
				for rep := 0; rep < reps; rep++ {
					jobs = append(jobs, job{ni, pat, load, rep})
				}
			}
		}
	}
	type result struct {
		acc, min, jain         float64
		rounds, flows          int
		matrix, resolve, solve time.Duration
	}
	res, err := engine.Run(len(jobs), workers(), func(i int) (result, error) {
		j := jobs[i]
		n := nets[j.net]
		jid := tr.begin("analysis.job", root)
		defer tr.end(jid)
		stream := rng.At(e.seed, rng.StringCoord("flow/"+n.name), rng.StringCoord(j.pattern),
			math.Float64bits(j.load), uint64(j.rep))
		var r result
		var m []traffic.Demand
		var err error
		r.matrix = tr.do("traffic.matrix", jid, func(int32) {
			if m, err = traffic.NewMatrix(j.pattern, n.terms, stream); err == nil {
				m = traffic.ScaleMatrix(m, j.load)
			}
		})
		if err != nil {
			return r, err
		}
		var out *flow.Result
		var s solveSpans
		s, out, err = tracedSolve(tr, jid, n.net, m, flow.Options{Seed: stream.Uint64(), Workers: 1})
		r.resolve, r.solve = s.resolve, s.solve
		if err != nil {
			return r, err
		}
		r.acc, r.min, r.jain, r.rounds, r.flows = out.Accepted, out.MinRate, out.Jain, out.Rounds, out.Flows
		return r, nil
	})
	if err != nil {
		return err
	}

	var rep *analysis.Report
	tr.do("analysis.report", root, func(int32) {
		per := len(loads) * reps
		var names []string
		var cols []*metrics.JobCollector
		for i, j := range jobs {
			if i%per == 0 {
				name := nets[j.net].name + "/" + j.pattern
				for _, s := range []string{"/accepted", "/minrate", "/jain"} {
					names = append(names, name+s)
					cols = append(cols, &metrics.JobCollector{})
				}
			}
			g := cols[3*(i/per):]
			for k, v := range []float64{res[i].acc, res[i].min, res[i].jain} {
				g[k].Expect(j.load)
				g[k].Observe(j.load, i, v)
			}
		}
		notes := []string{
			fmt.Sprintf("XGFT R%d %dL ×%d/leaf, RFC %v, RRN %d switches × Δ%d+%d terminals — T=%d each (~10× the equal-resources scenario)",
				xs.Radix, xs.Levels, xs.TermsPerLeaf, rp, rrnN, rrnDeg, rrnTps, xgft.Terminals()),
			"flow-level backend: max-min-fair water-filling over unit-capacity links, one random shortest path per flow",
			"accepted in delivered rate per terminal; minrate is the worst flow's rate; jain is Jain's fairness index",
		}
		rep = seriesReport(fmt.Sprintf("Flow backend: RFC vs RRN vs XGFT at 10× scale (%s)", analysis.ScaleSmall),
			notes, "offered load", "value", names, cols)
	})
	formatReport(o, tr, root, w, rep, want)
	tr.end(root)

	var matrix, resolve, waterfill time.Duration
	rounds, flows := 0, 0
	for _, r := range res {
		matrix += r.matrix
		resolve += r.resolve
		waterfill += r.solve - r.resolve
		rounds += r.rounds
		flows += r.flows
	}
	o.set("flow.rrn_tables_ms", "ms", ms(tables), nil)
	o.set("traffic.matrix_ms", "ms", ms(matrix), nil)
	o.set("flow.resolve_ms", "ms", ms(resolve), nil)
	o.set("flow.waterfill_ms", "ms", ms(waterfill), nil)
	o.set("flow.rounds", "count", float64(rounds), nil)
	o.set("flow.flows", "count", float64(flows), nil)
	return nil
}

// pathCoord is the label flow.Solve derives its per-flow path streams from.
var pathCoord = rng.StringCoord("flow/path")

// solveSpans are the timings of one traced flow.Solve.
type solveSpans struct {
	id             int32 // the solve span
	resolve, solve time.Duration
}

// tracedSolve times flow.Solve and, separately, the path resolution it
// performs: every flow resolved on the same per-flow stream Solve uses. The
// resolve span is charged as the solve span's child, so the solve span's
// self time is the water-filling; the time spent repeating the resolution
// is charged to the "replay" pseudo-layer.
func tracedSolve(tr *tracer, parent int32, net flow.Network, m []traffic.Demand, opts flow.Options) (solveSpans, *flow.Result, error) {
	var s solveSpans
	rerun := tr.begin(rerunSpan, parent)
	rid := tr.begin("flow.resolve", rerun)
	buf := make([]int32, 0, 16)
	for i, d := range m {
		if d.Rate > 0 {
			buf, _ = net.Resolve(d.Src, d.Dst, rng.At(opts.Seed, pathCoord, uint64(i)), buf[:0])
		}
	}
	s.resolve = tr.end(rid)
	tr.end(rerun)
	s.id = tr.begin("flow.solve", parent)
	res, err := flow.Solve(net, m, opts)
	s.solve = tr.end(s.id)
	tr.adopt(rid, s.id)
	return s, res, err
}
