package flow

import (
	"math"
	"strings"
	"testing"

	"rfclos/internal/core"
	"rfclos/internal/graph"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// stubNet is a Network with hand-wired paths, for exact water-filling
// checks.
type stubNet struct {
	t, links int
	paths    map[[2]int32][]int32
}

func (s *stubNet) Terminals() int { return s.t }
func (s *stubNet) NumLinks() int  { return s.links }
func (s *stubNet) Resolve(src, dst int32, _ *rng.Rand, buf []int32) ([]int32, bool) {
	p, ok := s.paths[[2]int32{src, dst}]
	if !ok {
		_ = append(buf, 9) // scribble on spare capacity, as a walk that fails partway does
		return nil, false
	}
	return append(buf, p...), true
}

// A stubNet is one destination group, walked flow by flow through Resolve.
func (s *stubNet) destGroups() int        { return 1 }
func (s *stubNet) destGroup(int32) int32  { return 0 }
func (s *stubNet) newWalker() groupWalker { return stubWalker{s} }

type stubWalker struct{ s *stubNet }

func (w stubWalker) start(int32) {}
func (w stubWalker) resolve(src, dst int32, r *rng.Rand, buf []int32) ([]int32, bool) {
	return w.s.Resolve(src, dst, r, buf)
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// matrixNames lists every matrix traffic.NewMatrix builds: the four packet
// patterns plus the flow-only workloads.
var matrixNames = []string{"uniform", "random-pairing", "fixed-random", "shift",
	"hotspot", "incast", "elephant-mice", "storm"}

func TestWaterfillSharedLink(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 1}, {Src: 2, Dst: 3, Rate: 1}}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rates[0], 0.5) || !near(res.Rates[1], 0.5) {
		t.Fatalf("two flows sharing a link: got rates %v, want 0.5 each", res.Rates)
	}
	if res.SatLinks != 1 {
		t.Errorf("saturated links = %d, want 1 (the shared link)", res.SatLinks)
	}
}

func TestWaterfillDemandCap(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 0.3}, {Src: 2, Dst: 3, Rate: 1}}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Rates[0], 0.3) || !near(res.Rates[1], 0.7) {
		t.Fatalf("demand-capped flow should release bandwidth: got %v, want [0.3 0.7]", res.Rates)
	}
}

func TestWaterfillAsymmetricBottlenecks(t *testing.T) {
	// The textbook example: A uses link 0; B uses links 0 and 1; C and D use
	// link 1. Max-min gives B=C=D=1/3 (link 1) and A=2/3 (link 0's rest).
	net := &stubNet{t: 8, links: 2, paths: map[[2]int32][]int32{
		{0, 1}: {0},
		{2, 3}: {0, 1},
		{4, 5}: {1},
		{6, 7}: {1},
	}}
	m := []traffic.Demand{
		{Src: 0, Dst: 1, Rate: 1}, {Src: 2, Dst: 3, Rate: 1},
		{Src: 4, Dst: 5, Rate: 1}, {Src: 6, Dst: 7, Rate: 1},
	}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2. / 3, 1. / 3, 1. / 3, 1. / 3}
	for i, w := range want {
		if !near(res.Rates[i], w) {
			t.Fatalf("asymmetric bottlenecks: got %v, want %v", res.Rates, want)
		}
	}
}

func TestIncastConvergesToFairShare(t *testing.T) {
	c, err := topology.NewCFT(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClos(c, routing.New(c), nil)
	// All 7 other terminals blast terminal 0: the ejection link forces 1/7.
	var m []traffic.Demand
	for s := int32(1); s < 8; s++ {
		m = append(m, traffic.Demand{Src: s, Dst: 0, Rate: 1})
	}
	res, err := Solve(net, m, Options{Seed: 3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rates {
		if !near(r, 1.0/7) {
			t.Fatalf("incast flow %d rate %.6f, want 1/7", i, r)
		}
	}
	if !near(res.Jain, 1) {
		t.Errorf("incast Jain index %.6f, want 1 (perfectly fair)", res.Jain)
	}
}

func TestLowLoadMeetsDemand(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClos(c, routing.New(c), nil)
	m := traffic.ScaleMatrix(traffic.UniformMatrix(c.Terminals(), 4, rng.New(5)), 0.2)
	res, err := Solve(net, m, Options{Seed: 9, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Rates {
		if !near(r, m[i].Rate) {
			t.Fatalf("under light uniform load every flow should meet demand: flow %d rate %.6f demand %.6f",
				i, r, m[i].Rate)
		}
	}
	if !near(res.Accepted, 0.2) {
		t.Errorf("accepted %.6f, want 0.2 (all demand delivered)", res.Accepted)
	}
}

func TestWorkerInvariance(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClos(c, routing.New(c), nil)
	m, err := traffic.NewMatrix("storm", c.Terminals(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	res1, err := Solve(net, m, Options{Seed: 42, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	resN, err := Solve(net, m, Options{Seed: 42, Workers: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res1.Rates {
		if res1.Rates[i] != resN.Rates[i] {
			t.Fatalf("flow %d rate differs across worker counts: %v vs %v", i, res1.Rates[i], resN.Rates[i])
		}
	}
	if res1.Accepted != resN.Accepted || res1.Rounds != resN.Rounds {
		t.Fatalf("summary differs across worker counts: %+v vs %+v", res1, resN)
	}
}

// verifyMaxMin checks res against the max-min certificate, with paths
// re-derived from the same coordinate streams Solve used.
func verifyMaxMin(t *testing.T, n Network, m []traffic.Demand, opts Options, res *Result) {
	t.Helper()
	p := flatPaths{off: []int32{0}}
	for i, d := range m {
		if d.Rate > 0 {
			if q, ok := n.Resolve(d.Src, d.Dst, rng.At(opts.Seed, pathCoord, uint64(i)), nil); ok {
				p.links = append(p.links, q...)
			}
		}
		p.flow = append(p.flow, int32(i))
		p.off = append(p.off, int32(len(p.links)))
	}
	checkMaxMin(t, p, m, n.NumLinks(), res.Rates)
}

// checkMaxMin checks the max-min certificate: (feasibility) no link
// carries more than its capacity, and (maximality) every flow either meets
// its demand or crosses a saturated link on which its rate is maximal.
// Flows with an empty path must get rate 0.
func checkMaxMin(t *testing.T, p flatPaths, m []traffic.Demand, nLinks int, rates []float64) {
	t.Helper()
	const tol = 1e-6
	paths := p.byFlow(len(m))
	used := make([]float64, nLinks)
	maxOn := make([]float64, nLinks)
	for i := range m {
		if len(paths[i]) == 0 && rates[i] != 0 {
			t.Fatalf("unrouted flow %d has rate %v", i, rates[i])
		}
		for _, l := range paths[i] {
			used[l] += rates[i]
			if rates[i] > maxOn[l] {
				maxOn[l] = rates[i]
			}
		}
	}
	for l, u := range used {
		if u > 1+tol {
			t.Fatalf("feasibility violated: link %d carries %.9f > 1", l, u)
		}
	}
	for i := range m {
		q := paths[i]
		if len(q) == 0 || rates[i] >= m[i].Rate-tol {
			continue // unrouted or demand-satisfied
		}
		ok := false
		for _, l := range q {
			if used[l] >= 1-tol && rates[i] >= maxOn[l]-tol {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("maximality violated: flow %d rate %.9f below demand %.9f with no saturated bottleneck it is maximal on",
				i, rates[i], m[i].Rate)
		}
	}
}

// namedNet is a Network with a label for test messages.
type namedNet struct {
	name string
	n    Network
}

// propertyNets is the small network grid of the property and oracle tests:
// CFT(8,3), an RFC(8,3,16) and an RRN(32,4,2).
func propertyNets(t *testing.T) []namedNet {
	t.Helper()
	cft, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	rc, _, _, err := core.GenerateRoutable(core.Params{Radix: 8, Levels: 3, Leaves: 16}, 20, rng.New(99))
	if err != nil {
		t.Fatal(err)
	}
	rrn, err := topology.NewRRN(32, 4, 2, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	rn, err := NewRRN(rrn, 1)
	if err != nil {
		t.Fatal(err)
	}
	return []namedNet{
		{"cft8x3", NewClos(cft, routing.New(cft), nil)},
		{"rfc8x3x16", NewClos(rc, routing.New(rc), nil)},
		{"rrn32x4x2", rn},
	}
}

func TestMaxMinPropertyAcrossNetworksAndMatrices(t *testing.T) {
	for _, nt := range propertyNets(t) {
		for _, name := range matrixNames {
			for _, load := range []float64{0.4, 1.0} {
				m, err := traffic.NewMatrix(name, nt.n.Terminals(), rng.New(11))
				if err != nil {
					t.Fatal(err)
				}
				m = traffic.ScaleMatrix(m, load)
				opts := Options{Seed: 17, Workers: 1}
				res, err := Solve(nt.n, m, opts)
				if err != nil {
					t.Fatalf("%s/%s: %v", nt.name, name, err)
				}
				verifyMaxMin(t, nt.n, m, opts, res)
			}
		}
	}
}

func TestSolveRejectsNonFiniteRates(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 1}, {Src: 2, Dst: 3, Rate: bad}}
		res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "demand 1 ") {
			t.Fatalf("rate %v: got (%+v, %v), want an error naming demand 1", bad, res, err)
		}
	}
}

// TestSolveRejectsNegativeRates checks that a negative demand is refused
// by name, while a demand of -0 is no demand: it solves, routes nothing for
// that flow and leaves the other flow alone on its links.
func TestSolveRejectsNegativeRates(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 1}, {Src: 2, Dst: 3, Rate: -1}}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "demand 1 rate -1 is negative") {
		t.Fatalf("rate -1: got (%+v, %v), want an error naming demand 1", res, err)
	}
	m[1].Rate = math.Copysign(0, -1)
	res, err = Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatalf("rate -0: %v", err)
	}
	if res.Unroutable != 0 || res.Rates[0] != 1 || res.Rates[1] != 0 || res.Rounds != 1 {
		t.Fatalf("rate -0: got %d unroutable, rates %v, %d rounds; want 0, [1 0], 1", res.Unroutable, res.Rates, res.Rounds)
	}
}

func TestUnroutableFlowGetsNoRate(t *testing.T) {
	net := &stubNet{t: 4, links: 10, paths: map[[2]int32][]int32{
		{0, 1}: {0, 5, 7},
		{2, 3}: {1, 5, 8},
	}}
	m := []traffic.Demand{{Src: 0, Dst: 1, Rate: 1}, {Src: 1, Dst: 2, Rate: 1}, {Src: 2, Dst: 3, Rate: 1}}
	res, err := Solve(net, m, Options{Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Unroutable != 1 || res.Rates[1] != 0 || !near(res.Rates[0], 0.5) || !near(res.Rates[2], 0.5) {
		t.Fatalf("unroutable middle flow: got %d unroutable, rates %v; want 1, [0.5 0 0.5]", res.Unroutable, res.Rates)
	}
}

func TestClosResolveLinkModel(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := NewClos(c, routing.New(c), nil)
	tcount := int32(c.Terminals())
	r := rng.New(1)
	p, ok := net.Resolve(0, tcount-1, r, nil)
	if !ok {
		t.Fatal("CFT pair unroutable")
	}
	if p[0] != 0 || p[len(p)-1] != tcount+tcount-1 {
		t.Fatalf("path must start at injection 0 and end at ejection of dst: %v", p)
	}
	// CFT(8,3) cross-network path: injection + 2 up + 2 down + ejection.
	if len(p) != 6 {
		t.Fatalf("distant leaf pair path length %d links, want 6", len(p))
	}
	for _, l := range p {
		if int(l) >= net.NumLinks() || l < 0 {
			t.Fatalf("link id %d outside [0, %d)", l, net.NumLinks())
		}
	}
	// Same-leaf pair: terminal links only.
	p, ok = net.Resolve(0, 1, r, nil)
	if !ok || len(p) != 2 {
		t.Fatalf("same-leaf pair should use only terminal links, got %v", p)
	}
}

func TestTurnIndexMatchesCoverResolution(t *testing.T) {
	c, err := topology.NewCFT(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ud := routing.New(c)
	plain := NewClos(c, ud, nil)
	indexed := NewClos(c, ud, routing.NewTurnIndex(ud, 0))
	m := traffic.ScaleMatrix(traffic.UniformMatrix(c.Terminals(), 2, rng.New(8)), 1)
	a, err := Solve(plain, m, Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(indexed, m, Options{Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rates {
		if a.Rates[i] != b.Rates[i] {
			t.Fatalf("turn-index path resolution diverged at flow %d", i)
		}
	}
}

// TestNewRRNErrorUnchanged pins NewRRN's error strings: rfcd returns them
// verbatim as the 422 body of /v1/throughput on an rrn build.
func TestNewRRNErrorUnchanged(t *testing.T) {
	isolated, err := topology.NewRRN(32, 4, 2, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range append([]int32(nil), isolated.G.Neighbors(5)...) {
		isolated.G.RemoveEdge(5, int(u))
	}
	path := &topology.RRN{G: graph.New(300), Degree: 2, TermsPerSwitch: 1}
	for v := 0; v+1 < 300; v++ {
		path.G.AddEdge(v, v+1)
	}
	for _, tc := range []struct {
		name string
		r    *topology.RRN
		want string
	}{
		{"isolated switch", isolated, "flow: RRN switch 5 unreachable from 0 (distance -1)"},
		{"path of 300", path, "flow: RRN switch 256 unreachable from 0 (distance 256)"},
	} {
		for _, workers := range []int{1, 2} {
			if _, err := NewRRN(tc.r, workers); err == nil || err.Error() != tc.want {
				t.Errorf("%s workers=%d: error %v, want %q", tc.name, workers, err, tc.want)
			}
		}
	}
}
