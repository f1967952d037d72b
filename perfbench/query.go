package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rfclos/internal/core"
	"rfclos/internal/service"
)

const (
	poolSize = 2048 // distinct requests; the timed loop cycles through them
	warmN    = 256  // requests of the warm-up pass that ends set-up
	setupsQ  = 5    // rfcd set-ups per run; the last one serves the window

	// clients is the closed loop's connection count. With one, rfcd serves
	// one request at a time: a request's latency is its own cost, not a
	// share of a core contended by a second client, and the other core is
	// left to the client, the garbage collector and the machine's other work.
	clients = 1
)

// topoInfos derives the cache key, leaf count and wire count of each
// rfcd-query build from its spec alone, so the request mix is fixed before
// rfcd starts. Set-up checks them against rfcd's build summaries.
func topoInfos() [numTopos]topoInfo {
	var out [numTopos]topoInfo
	for t, sp := range querySpecs {
		n, err := sp.Normalize()
		if err != nil {
			panic(fmt.Sprintf("perfbench: spec %d: %v", t, err))
		}
		out[t].key = n.Key()
		if sp.Kind == "rfc" {
			p := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
			out[t].leaves, out[t].wires = p.Leaves, p.Wires()
			continue
		}
		// XGFT leaf switches: w1 · m2 · ... · mh.
		out[t].leaves = sp.W[0]
		for _, m := range sp.M[1:] {
			out[t].leaves *= m
		}
	}
	return out
}

// rfcd is a running rfcd child process.
type rfcd struct {
	cmd  *exec.Cmd
	base string
	http *http.Client
}

// startRfcd spawns rfcd on a free loopback port and waits until it answers
// /healthz.
func startRfcd(e env) (*rfcd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(e.prog("rfcd"), "-addr", addr)
	cmd.Dir = e.root
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &rfcd{cmd: cmd, base: "http://" + addr, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true},
	}}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if body, code, err := d.do("GET", "/healthz", nil); err == nil && code == 200 && string(body) == "ok\n" {
			return d, nil
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("rfcd did not come up within 10s")
		}
	}
}

// do sends one request and returns the response body and status.
func (d *rfcd) do(method, target string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequest(method, d.base+target, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// stop shuts rfcd down gracefully, waits for it and returns its cost.
func (d *rfcd) stop() (usage, error) {
	d.http.CloseIdleConnections()
	start := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.cmd.Process.Kill()
	}
	timer := time.AfterFunc(15*time.Second, func() { d.cmd.Process.Kill() })
	defer timer.Stop()
	err := d.cmd.Wait()
	return usageOf(d.cmd, time.Since(start)), err
}

// buildBodies are the POST /v1/topology request bodies.
func buildBodies() [numTopos][]byte {
	var out [numTopos][]byte
	for t, sp := range querySpecs {
		out[t] = mustJSON(sp)
	}
	return out
}

// setupRfcd starts rfcd, builds the three topologies and sends the warm-up
// pass. It returns the server, the build summaries' bytes and the set-up
// wall time.
func setupRfcd(e env, topos [numTopos]topoInfo, warm []request) (*rfcd, [numTopos][]byte, time.Duration, error) {
	var sums [numTopos][]byte
	start := time.Now()
	d, err := startRfcd(e)
	if err != nil {
		return nil, sums, 0, err
	}
	for t, body := range buildBodies() {
		b, code, err := d.do("POST", "/v1/topology", body)
		if err == nil && code != 200 {
			err = fmt.Errorf("HTTP %d: %s", code, b)
		}
		if err == nil {
			err = checkSummary(b, topos[t])
		}
		if err != nil {
			d.stop()
			return nil, sums, 0, fmt.Errorf("building %s: %w", querySpecs[t].Kind, err)
		}
		sums[t] = b
	}
	drive(d, warm, len(warm), 0)
	return d, sums, time.Since(start), nil
}

// checkSummary confirms a build summary names the key and size the mix was
// generated for.
func checkSummary(body []byte, want topoInfo) error {
	var sum service.TopologySummary
	if err := json.Unmarshal(body, &sum); err != nil {
		return err
	}
	if sum.Key != want.key || sum.IndexLeaves != want.leaves {
		return fmt.Errorf("summary key %s with %d leaves, want %s with %d", sum.Key, sum.IndexLeaves, want.key, want.leaves)
	}
	return nil
}

// sample is one answered request of the timed loop.
type sample struct {
	idx  int // index into the request pool
	done time.Time
	lat  time.Duration
	code int
	body []byte
	err  error
}

// drive runs a closed loop of clients connections, each sending its next
// request as soon as the previous one is answered, cycling through pool in
// order. It stops after limit requests when limit > 0, or else once window
// has passed.
func drive(d *rfcd, pool []request, limit int, window time.Duration) []sample {
	var next atomic.Int64
	deadline := time.Now().Add(window)
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if limit > 0 && n >= limit || limit == 0 && !time.Now().Before(deadline) {
					return
				}
				q := &pool[n%len(pool)]
				t0 := time.Now()
				body, code, err := d.do(q.method, q.target, q.body)
				t1 := time.Now()
				per[w] = append(per[w], sample{idx: n % len(pool), done: t1, lat: t1.Sub(t0), code: code, body: body, err: err})
			}
		}(w)
	}
	wg.Wait()
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// runQuery is the rfcd-query workload.
func runQuery(ctx context.Context, e env) (*outcome, error) {
	o := newOutcome()
	topos := topoInfos()
	pool := buildMix(e.seed, poolSize, topos)

	var setups []float64
	var d *rfcd
	var sums [numTopos][]byte
	for i := 0; i < setupsQ; i++ {
		var took time.Duration
		var err error
		d, sums, took, err = setupRfcd(e, topos, pool[:warmN])
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i < setupsQ-1 {
			if _, err := d.stop(); err != nil {
				return nil, fmt.Errorf("stopping rfcd: %w", err)
			}
		}
	}

	marks, samples, err := driveWindow(d, pool, e.seconds)
	u, stopErr := d.stop()
	if err := errors.Join(err, stopErr); err != nil {
		return nil, err
	}
	verifyQuery(o, service.New(service.Options{}).Handler(), pool, samples, sums)

	all := make([]float64, len(samples))
	byClass := make([][]float64, numClasses)
	for i, s := range samples {
		all[i] = float64(s.lat.Nanoseconds()) / 1e6
		c := pool[s.idx].class
		byClass[c] = append(byClass[c], all[i])
	}
	for c, l := range byClass {
		o.summaries["latency_ms."+class(c).String()] = summarize(l)
	}
	// The metrics cover the whole window: the machines this runs on change
	// speed within seconds, and a whole window averages that out where any
	// one slice of it does not. The per-slice figures are kept as samples.
	// Latency is the mean request: the median one is a path query whose
	// time is mostly loopback transport and wake-ups, which swings by a
	// quarter from run to run, while the mean weighs each class by its cost.
	window := marks[len(marks)-1].at.Sub(marks[0].at)
	lat, ops, cpu := subWindows(marks, samples)
	o.set("setup_s", "s", median(setups), setups)
	o.set("latency_ms", "ms", mean(all), lat)
	o.summaries["latency_ms.all"] = summarize(all)
	o.set("ops_per_s", "1/s", float64(len(samples))/window.Seconds(), ops)
	o.set("peak_rss_mb", "MiB", float64(u.maxRSS)/(1<<20), nil)
	o.summaries["cpu_ms_per_request"] = summarize(cpu)
	return o, nil
}

// subWindow is the length of the slices the timed window is cut into.
const subWindow = time.Second

// cpuMark is rfcd's CPU time read at one sub-window boundary.
type cpuMark struct {
	at  time.Time
	cpu time.Duration
}

// driveWindow runs the closed loop for window, reading rfcd's CPU time at
// the start, at every sub-window boundary and once the last request is
// answered.
func driveWindow(d *rfcd, pool []request, window time.Duration) ([]cpuMark, []sample, error) {
	pid := d.cmd.Process.Pid
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, nil, err
	}
	marks := []cpuMark{{time.Now(), cpu0}}
	stop := make(chan struct{})
	ticked := make(chan error, 1)
	go func() {
		t := time.NewTicker(subWindow)
		defer t.Stop()
		for {
			select {
			case <-stop:
				cpu, err := procCPU(pid)
				marks = append(marks, cpuMark{time.Now(), cpu})
				ticked <- err
				return
			case now := <-t.C:
				cpu, err := procCPU(pid)
				if err != nil {
					ticked <- err
					return
				}
				marks = append(marks, cpuMark{now, cpu})
			}
		}
	}()
	samples := drive(d, pool, 0, window)
	close(stop)
	return marks, samples, <-ticked
}

// subWindows cuts the timed window at the CPU marks and returns, per
// sub-window, the mean request latency (ms), the requests completed per
// second, and rfcd's CPU milliseconds per request.
func subWindows(marks []cpuMark, samples []sample) (lat, ops, cpu []float64) {
	for k := 1; k < len(marks); k++ {
		lo, hi := marks[k-1], marks[k]
		if hi.at.Sub(lo.at) < subWindow/2 {
			continue // the tail after the window closed
		}
		var in []float64
		for _, s := range samples {
			if !s.done.Before(lo.at) && s.done.Before(hi.at) {
				in = append(in, float64(s.lat.Nanoseconds())/1e6)
			}
		}
		if len(in) == 0 {
			continue
		}
		lat = append(lat, mean(in))
		ops = append(ops, float64(len(in))/hi.at.Sub(lo.at).Seconds())
		cpu = append(cpu, float64((hi.cpu-lo.cpu).Microseconds())/1e3/float64(len(in)))
	}
	return lat, ops, cpu
}

// verifyQuery builds the same topologies in h, an in-process
// service.Server configured like the rfcd child, recomputes every distinct
// request the loop sent, and compares each answer rfcd gave with it byte
// for byte. It runs after the timed window.
func verifyQuery(o *outcome, h http.Handler, pool []request, samples []sample, sums [numTopos][]byte) {
	for t, body := range buildBodies() {
		got := serve(h, "POST", "/v1/topology", body)
		o.check(bytes.Equal(got.Body.Bytes(), sums[t]), "build summary %d differs from the in-process build", t)
	}
	used := make([]bool, len(pool))
	for _, s := range samples {
		used[s.idx] = true
	}
	want := recompute(h, pool, used)
	for _, s := range samples {
		switch {
		case s.err != nil:
			o.check(false, "request %d (%s): %v", s.idx, pool[s.idx].class, s.err)
		case s.code != 200:
			o.check(false, "request %d (%s): HTTP %d: %s", s.idx, pool[s.idx].class, s.code, s.body)
		default:
			o.check(bytes.Equal(s.body, want[s.idx]), "request %d (%s %s): response differs from the in-process recompute",
				s.idx, pool[s.idx].method, pool[s.idx].target)
		}
	}
}

// recompute answers every used pool request in process, on workers()
// goroutines.
func recompute(h http.Handler, pool []request, used []bool) [][]byte {
	want := make([][]byte, len(pool))
	var wg sync.WaitGroup
	for w := 0; w < workers(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pool); i += workers() {
				if used[i] {
					q := &pool[i]
					want[i] = serve(h, q.method, q.target, q.body).Body.Bytes()
				}
			}
		}(w)
	}
	wg.Wait()
	return want
}

// serve runs one request through a handler on a recorder.
func serve(h http.Handler, method, target string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}
