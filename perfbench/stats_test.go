package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileTinyInputs(t *testing.T) {
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := quantile([]float64{5}, q); got != 5 {
			t.Errorf("quantile([5], %g) = %g, want 5", q, got)
		}
	}
	four := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {1, 4},
	} {
		if got := quantile(four, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %g) = %g, want %g", four, c.q, got, c.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{3, 1, 2})
	if s.N != 3 || s.Min != 1 || s.Max != 3 || s.Median != 2 || s.Q1 != 1.5 || s.Q3 != 2.5 {
		t.Errorf("summarize([3 1 2]) = %+v", s)
	}
	if len(s.Samples) != 3 || s.Samples[0] != 3 {
		t.Errorf("samples should be kept in measured order, got %v", s.Samples)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	many := make([]float64, maxListedSamples+1)
	if s := summarize(many); s.Samples != nil || s.N != len(many) {
		t.Errorf("a long sample list should keep only its quantiles, got %d samples", len(s.Samples))
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil).N = %d", s.N)
	}
}

func TestQuantileDur(t *testing.T) {
	ds := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := medianDur(ds, ms); got != 2 {
		t.Errorf("medianDur = %g ms, want 2", got)
	}
	if got := quantileDur(ds, 1, us); got != 3000 {
		t.Errorf("max = %g us, want 3000", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: noParent, Start: 0, End: 100},
		{Name: "service.path", Parent: 0, Start: 10, End: 50},
		{Name: "routing.pathat", Parent: 1, Start: 60, End: 85}, // repeated outside its parent
		{Name: rerunSpan, Parent: 0, Start: 55, End: 90},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"root": 100 - 40 - 35, "service.path": 40 - 25, "routing.pathat": 25, rerunSpan: 35}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self[%s] = %d, want %d", name, self[name], d)
		}
	}
}

func TestSelfTimesParallelChildren(t *testing.T) {
	// Two workers run three jobs between them; the jobs cover [10, 90].
	spans := []span{
		{Name: "root", Parent: noParent, Start: 0, End: 100},
		{Name: "analysis.job", Parent: 0, Start: 10, End: 60},
		{Name: "analysis.job", Parent: 0, Start: 20, End: 50},
		{Name: "analysis.job", Parent: 0, Start: 55, End: 90},
	}
	self := selfTimes(spans)
	if self["root"] != 20 || self["analysis.job"] != 115 {
		t.Errorf("self = %v, want root 20 and analysis.job 115", self)
	}
}

func TestTracerAdopt(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root", noParent)
	rerun := tr.begin(rerunSpan, root)
	child := tr.begin("flow.resolve", rerun)
	tr.end(child)
	tr.end(rerun)
	solve := tr.begin("flow.solve", root)
	tr.end(solve)
	tr.adopt(child, solve)
	tr.end(root)
	spans := tr.snapshot()
	if spans[child].Parent != solve {
		t.Fatalf("adopted span's parent = %d, want %d", spans[child].Parent, solve)
	}
	self := selfTimes(spans)
	if self[rerunSpan] != spans[rerun].dur() {
		t.Errorf("rerun span should keep its whole duration as self time")
	}
	if self["flow.solve"] != spans[solve].dur()-spans[child].dur() {
		t.Errorf("solve self time should exclude the adopted child")
	}
}

func TestMean(t *testing.T) {
	if got := mean([]float64{5, 1, 4, 2, 3}); got != 3 {
		t.Errorf("mean = %g, want 3", got)
	}
	if got := mean([]float64{7}); got != 7 {
		t.Errorf("mean of one sample = %g, want 7", got)
	}
	if !math.IsNaN(mean(nil)) {
		t.Error("mean of no samples should be NaN")
	}
}

func TestSubWindows(t *testing.T) {
	t0 := time.Unix(1000, 0)
	marks := []cpuMark{
		{t0, 0},
		{t0.Add(time.Second), 30 * time.Millisecond},
		{t0.Add(2 * time.Second), 50 * time.Millisecond},
		{t0.Add(2100 * time.Millisecond), 60 * time.Millisecond}, // tail
	}
	at := func(ms int, lat time.Duration) sample {
		return sample{done: t0.Add(time.Duration(ms) * time.Millisecond), lat: lat}
	}
	samples := []sample{
		at(100, time.Millisecond), at(500, 3*time.Millisecond), at(900, 2*time.Millisecond),
		at(1000, 4*time.Millisecond), at(1999, 6*time.Millisecond),
		at(2050, time.Millisecond),
	}
	lat, ops, cpu := subWindows(marks, samples)
	wantLat, wantOps, wantCPU := []float64{2, 5}, []float64{3, 2}, []float64{10, 10}
	for i := range wantLat {
		if len(lat) != 2 || lat[i] != wantLat[i] || ops[i] != wantOps[i] || cpu[i] != wantCPU[i] {
			t.Fatalf("subWindows = %v %v %v, want %v %v %v", lat, ops, cpu, wantLat, wantOps, wantCPU)
		}
	}
}
