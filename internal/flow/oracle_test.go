package flow

import (
	"fmt"
	"math"
	"testing"

	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/simcore/goldencases"
	"rfclos/internal/traffic"
)

// oracleWaterfill is the reference water-filler: the per-round scan the
// heap solver replaced. Each round it scans every active link for the
// nearest saturation, scans again to lower every residual, and compacts
// the active list, so a solve costs O(rounds × links). It fills Rates,
// Rounds and SatLinks only.
func oracleWaterfill(p flatPaths, m []traffic.Demand, nLinks int) *Result {
	res := &Result{Flows: len(m), Rates: make([]float64, len(m))}
	paths := p.byFlow(len(m))
	nact := make([]int32, nLinks)
	var order []int32
	rate := make([]float64, len(m))
	for i := range m {
		for _, l := range paths[i] {
			nact[l]++
		}
		if len(paths[i]) > 0 {
			order = append(order, int32(i))
		}
		rate[i] = m[i].Rate
	}
	lfStart := make([]int32, nLinks+1)
	for l := 0; l < nLinks; l++ {
		lfStart[l+1] = lfStart[l] + nact[l]
	}
	lfFlow := make([]int32, len(p.links))
	next := append([]int32(nil), lfStart[:nLinks]...)
	for _, f := range order {
		for _, l := range paths[f] {
			lfFlow[next[l]] = f
			next[l]++
		}
	}
	var active []int32
	resid := make([]float64, nLinks)
	for l := 0; l < nLinks; l++ {
		resid[l] = 1
		if nact[l] > 0 {
			active = append(active, int32(l))
		}
	}
	sortByDemand(order, rate)
	frozen := make([]bool, len(m))
	unfrozen, water, op := len(order), 0.0, 0
	const eps = 1e-12
	freeze := func(f int32, rate float64) {
		frozen[f] = true
		res.Rates[f] = rate
		unfrozen--
		for _, l := range paths[f] {
			nact[l]--
		}
	}
	for unfrozen > 0 {
		deltaL := math.Inf(1)
		for _, l := range active {
			if nact[l] > 0 {
				deltaL = math.Min(deltaL, resid[l]/float64(nact[l]))
			}
		}
		for op < len(order) && frozen[order[op]] {
			op++
		}
		deltaD := math.Inf(1)
		if op < len(order) {
			deltaD = m[order[op]].Rate - water
		}
		delta := math.Min(deltaL, deltaD)
		if math.IsInf(delta, 1) {
			break
		}
		if delta > 0 {
			water += delta
			for _, l := range active {
				if nact[l] > 0 {
					resid[l] = math.Max(0, resid[l]-delta*float64(nact[l]))
				}
			}
		}
		for ; op < len(order); op++ {
			f := order[op]
			if frozen[f] {
				continue
			}
			if m[f].Rate-water > eps {
				break
			}
			freeze(f, m[f].Rate)
		}
		kept := active[:0]
		for _, l := range active {
			if nact[l] == 0 {
				continue
			}
			if resid[l] <= eps {
				for j := lfStart[l]; j < lfStart[l+1]; j++ {
					if f := lfFlow[j]; !frozen[f] {
						freeze(f, water)
					}
				}
				res.SatLinks++
				continue
			}
			kept = append(kept, l)
		}
		active = kept
		res.Rounds++
	}
	return res
}

// byFlow returns each of n flows' stored path, indexed like the matrix
// (nil for a flow with none).
func (p flatPaths) byFlow(n int) [][]int32 {
	paths := make([][]int32, n)
	for k, f := range p.flow {
		paths[f] = p.path(k)
	}
	return paths
}

// matchOracle water-fills one instance with both solvers and requires
// per-flow rates within 1e-9 and equal Rounds and SatLinks.
func matchOracle(t *testing.T, name string, p flatPaths, m []traffic.Demand, nLinks int) *Result {
	t.Helper()
	got, want := waterfill(p, m, nLinks), oracleWaterfill(p, m, nLinks)
	for i := range m {
		if math.Abs(got.Rates[i]-want.Rates[i]) > 1e-9 {
			t.Fatalf("%s: flow %d rate %.15g, oracle %.15g", name, i, got.Rates[i], want.Rates[i])
		}
	}
	if got.Rounds != want.Rounds || got.SatLinks != want.SatLinks {
		t.Fatalf("%s: rounds/satlinks %d/%d, oracle %d/%d",
			name, got.Rounds, got.SatLinks, want.Rounds, want.SatLinks)
	}
	return got
}

// crossvalInstance builds the flow backend's input for the i-th
// goldencases.Case: the same topology and pattern as the cycle-engine
// golden point, the pattern turned into a matrix (one flow per source)
// scaled by the case's offered load.
func crossvalInstance(i int, fc goldencases.Case, workers int) (Network, []traffic.Demand, Options, error) {
	var net Network
	if fc.BuildClos != nil {
		c, err := fc.BuildClos()
		if err != nil {
			return nil, nil, Options{}, err
		}
		net = NewClos(c, routing.New(c), nil)
	} else {
		r, err := fc.BuildRRN()
		if err != nil {
			return nil, nil, Options{}, err
		}
		if net, err = NewRRN(r, workers); err != nil {
			return nil, nil, Options{}, err
		}
	}
	stream := rng.At(7, rng.StringCoord("flow/crossval"), uint64(i))
	m := traffic.MatrixFromPattern(fc.Pattern(net.Terminals()), net.Terminals(), stream)
	return net, traffic.ScaleMatrix(m, fc.Load), Options{Seed: 7, Workers: workers}, nil
}

func TestWaterfillMatchesOracle(t *testing.T) {
	solve := func(name string, n Network, m []traffic.Demand, opts Options) {
		p, err := resolvePaths(n, m, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		matchOracle(t, name, p, m, n.NumLinks())
	}
	for i, fc := range goldencases.Cases() {
		n, m, opts, err := crossvalInstance(i, fc, 1)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name, err)
		}
		solve(fc.Name, n, m, opts)
	}
	for _, nt := range propertyNets(t) {
		for _, name := range matrixNames {
			for _, load := range []float64{0.4, 1.0} {
				m, err := traffic.NewMatrix(name, nt.n.Terminals(), rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				solve(fmt.Sprintf("%s/%s/%.1f", nt.name, name, load),
					nt.n, traffic.ScaleMatrix(m, load), Options{Seed: 17, Workers: 1})
			}
		}
	}
	r := rng.New(5)
	for k := 0; k < 500; k++ {
		data := make([]byte, 1+r.Intn(160))
		for j := range data {
			data[j] = byte(r.Intn(256))
		}
		p, m, nLinks := decodeInstance(data)
		res := matchOracle(t, fmt.Sprintf("random instance %d (%x)", k, data), p, m, nLinks)
		checkMaxMin(t, p, m, nLinks, res.Rates)
	}
}

// TestWaterfillStorageOrderInvariant checks that where the paths sit in
// flatPaths moves no bit of the solve: the grouped layout resolvePaths
// writes, the same paths in flow-index order and in reverse flow order
// give identical rates, Rounds and SatLinks.
func TestWaterfillStorageOrderInvariant(t *testing.T) {
	relay := func(p flatPaths, flows []int32) flatPaths {
		paths := p.byFlow(len(flows))
		q := flatPaths{off: []int32{0}}
		for _, f := range flows {
			q.links = append(q.links, paths[f]...)
			q.flow = append(q.flow, f)
			q.off = append(q.off, int32(len(q.links)))
		}
		return q
	}
	check := func(name string, n Network, m []traffic.Demand, opts Options) {
		p, err := resolvePaths(n, m, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fwd, rev := make([]int32, len(m)), make([]int32, len(m))
		for i := range m {
			fwd[i], rev[len(m)-1-i] = int32(i), int32(i)
		}
		want := waterfill(p, m, n.NumLinks())
		for _, q := range []flatPaths{relay(p, fwd), relay(p, rev)} {
			got := waterfill(q, m, n.NumLinks())
			if got.Rounds != want.Rounds || got.SatLinks != want.SatLinks {
				t.Fatalf("%s: rounds/satlinks %d/%d, grouped layout %d/%d", name, got.Rounds, got.SatLinks, want.Rounds, want.SatLinks)
			}
			for i := range m {
				if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) {
					t.Fatalf("%s: flow %d rate %v, grouped layout %v", name, i, got.Rates[i], want.Rates[i])
				}
			}
		}
	}
	for i, fc := range goldencases.Cases() {
		n, m, opts, err := crossvalInstance(i, fc, 1)
		if err != nil {
			t.Fatalf("%s: %v", fc.Name, err)
		}
		check(fc.Name, n, m, opts)
	}
	for _, nt := range propertyNets(t) {
		for _, name := range matrixNames {
			m, err := traffic.NewMatrix(name, nt.n.Terminals(), rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			check(nt.name+"/"+name, nt.n, traffic.ScaleMatrix(m, 1), Options{Seed: 17, Workers: 1})
		}
	}
}
