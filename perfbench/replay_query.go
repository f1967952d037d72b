package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"time"

	"rfclos/internal/core"
	"rfclos/internal/flow"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/service"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// built is one topology with its routing state and turn index.
type built struct {
	c  *topology.Clos
	ud *routing.UpDown
	ix routing.TurnIndex
}

// minTurnSink keeps the MinTurn timing loop from being optimised away.
var minTurnSink int

// traceQuery is the rfcd-query part of the traced run. First one client
// pass over the request pool against a live rfcd gives per-class latency as
// a client sees it, and its responses are checked like the untraced run's.
// Then, in process, the three topologies are built through the layers one
// call at a time, and every pool request is replayed through
// service.Server's handler. The handler is opaque, so after each handler
// call the replay repeats the routing, flow, traffic, graph and topology
// calls the handler made for that request, checks their results against the
// response, and records them as children of the handler span: the
// handler's self time is then the serving layer's own cost, and the time
// spent repeating calls is charged to the "replay" pseudo-layer.
func traceQuery(ctx context.Context, e env, o *outcome, tr *tracer) error {
	topos := topoInfos()
	pool := buildMix(e.seed, poolSize, topos)

	d, sums, took, err := setupRfcd(e, topos, pool[:warmN])
	if err != nil {
		return err
	}
	start := time.Now()
	samples := drive(d, pool, len(pool), 0)
	pass := time.Since(start)
	if _, err := d.stop(); err != nil {
		return fmt.Errorf("stopping rfcd: %w", err)
	}
	srv := service.New(service.Options{})
	h := srv.Handler()
	verifyQuery(o, h, pool, samples, sums)
	client := make([][]time.Duration, numClasses)
	for _, s := range samples {
		c := pool[s.idx].class
		client[c] = append(client[c], s.lat)
	}
	pathP50 := medianDur(client[classPath], us)
	o.set("rfcd.setup_s", "s", took.Seconds(), nil)
	o.set("rfcd.req_per_s", "1/s", float64(len(samples))/pass.Seconds(), nil)
	o.set("rfcd.path_p50_us", "us", pathP50, nil)
	o.set("rfcd.path_p99_us", "us", quantileDur(client[classPath], 0.99, us), nil)
	o.set("rfcd.paths_p50_ms", "ms", medianDur(client[classPaths], ms), nil)
	o.set("rfcd.paths_p99_ms", "ms", quantileDur(client[classPaths], 0.99, ms), nil)
	o.set("rfcd.faults_p50_ms", "ms", medianDur(client[classFaults], ms), nil)
	o.set("rfcd.throughput_p50_ms", "ms", medianDur(client[classThroughput], ms), nil)

	root := tr.begin("rfcd-query", noParent)
	if err := buildQueryTopos(o, tr, root); err != nil {
		return err
	}
	// The repeated calls run on the server's own cached builds, so they
	// touch exactly the memory the handler touched.
	var b [numTopos]built
	for t := range b {
		top, ok := srv.Cache().Lookup(topos[t].key)
		if !ok {
			return fmt.Errorf("build %d missing from the in-process cache", t)
		}
		b[t] = built{c: top.Clos, ud: top.Router, ix: top.Index}
	}
	handler := make([][]time.Duration, numClasses)
	self := make([][]time.Duration, numClasses)
	var pathAt [numTopos][]time.Duration
	var unroutable, connected []time.Duration
	for i := range pool {
		// Alternate which of the handler and its repeated children runs
		// first, so neither side always finds the caches warm.
		q := &pool[i]
		var kids []child
		var check func([]byte) error
		if i%2 == 1 {
			kids, check = replayChildren(tr, root, q, &b[q.topo])
		}
		hid := tr.begin("service."+q.class.String(), root)
		rec := serve(h, q.method, q.target, q.body)
		hd := tr.end(hid)
		if i%2 == 0 {
			kids, check = replayChildren(tr, root, q, &b[q.topo])
		}
		err := check(rec.Body.Bytes())
		o.check(err == nil, "replayed %s request %d: %v", q.class, i, err)
		var sum time.Duration
		for _, k := range kids {
			tr.adopt(k.id, hid)
			sum += k.dur
			switch k.name {
			case "routing.pathat":
				pathAt[q.topo] = append(pathAt[q.topo], k.dur)
			case "routing.unroutable":
				unroutable = append(unroutable, k.dur)
			case "graph.connected":
				connected = append(connected, k.dur)
			}
		}
		handler[q.class] = append(handler[q.class], hd)
		self[q.class] = append(self[q.class], hd-sum)
	}
	tr.end(root)

	o.set("service.path_us", "us", medianDur(handler[classPath], us), nil)
	o.set("service.paths_ms", "ms", medianDur(handler[classPaths], ms), nil)
	o.set("service.faults_ms", "ms", medianDur(handler[classFaults], ms), nil)
	o.set("service.throughput_ms", "ms", medianDur(handler[classThroughput], ms), nil)
	o.set("service.self_path_us", "us", medianDur(self[classPath], us), nil)
	o.set("service.self_paths_ms", "ms", medianDur(self[classPaths], ms), nil)
	o.set("service.self_faults_ms", "ms", medianDur(self[classFaults], ms), nil)
	o.set("service.self_throughput_ms", "ms", medianDur(self[classThroughput], ms), nil)
	o.set("transport_us", "us", pathP50-medianDur(handler[classPath], us), nil)
	o.set("routing.pathat_xgft_us", "us", medianDur(pathAt[topoXGFT], us), nil)
	o.set("routing.pathat_rfc_us", "us", medianDur(pathAt[topoRFCLarge], us), nil)
	o.set("routing.unroutable_ms", "ms", medianDur(unroutable, ms), nil)
	o.set("graph.connected_ms", "ms", medianDur(connected, ms), nil)
	o.set("routing.minturn_succinct_ns", "ns", minTurnNS(b[topoXGFT].ix, pool, topoXGFT), nil)
	o.set("routing.minturn_dense_ns", "ns", minTurnNS(b[topoRFCLarge].ix, pool, topoRFCLarge), nil)
	return nil
}

// minTurnNS times TurnIndex.MinTurn over the path-request pairs of one
// topology in a tight loop (a single lookup is far below timer and span
// resolution) and returns nanoseconds per lookup.
func minTurnNS(ix routing.TurnIndex, pool []request, topo int) float64 {
	var pairs [][2]int
	for i := range pool {
		if pool[i].class == classPath && pool[i].topo == topo {
			pairs = append(pairs, [2]int{pool[i].src, pool[i].dst})
		}
	}
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < 50*time.Millisecond {
		for _, p := range pairs {
			minTurnSink += ix.MinTurn(p[0], p[1])
		}
		n += len(pairs)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// buildQueryTopos builds the rfcd-query topologies the way
// service.BuildIndexed does, one span per layer call.
func buildQueryTopos(o *outcome, tr *tracer, root int32) error {
	var b [numTopos]built
	var err error
	xs := querySpecs[topoXGFT]
	rs := routing.NewRebuildStream()
	wire := tr.do("topology.xgft_build", root, func(int32) {
		b[topoXGFT].c, err = topology.NewXGFTStream(xs.M, xs.W, xs.Radix, rs)
	})
	if err != nil {
		return err
	}
	covers := tr.do("routing.covers", root, func(int32) { b[topoXGFT].ud = rs.Finish(b[topoXGFT].c) })
	var gen time.Duration
	attempts := 0
	for _, t := range []int{topoRFCLarge, topoRFCSmall} {
		sp := querySpecs[t]
		p := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
		var n int
		gen += tr.do("core.generate", root, func(int32) {
			b[t].c, b[t].ud, n, err = core.GenerateRoutable(p, 50, rng.New(sp.Seed))
		})
		if err != nil {
			return err
		}
		attempts += n
	}
	var index time.Duration
	indexBytes := 0
	for t := range b {
		index += tr.do("routing.index", root, func(int32) {
			b[t].ix = routing.NewTurnIndex(b[t].ud, service.DefaultDenseIndexBytes)
		})
		indexBytes += b[t].ix.SizeBytes()
	}
	if b[topoXGFT].ix.Tier() != "succinct" || b[topoRFCLarge].ix.Tier() != "dense" {
		return fmt.Errorf("index tiers %s/%s, want succinct/dense", b[topoXGFT].ix.Tier(), b[topoRFCLarge].ix.Tier())
	}
	o.set("topology.xgft_build_ms", "ms", ms(wire), nil)
	o.set("routing.covers_ms", "ms", ms(covers), nil)
	o.set("core.generate_ms", "ms", ms(gen), nil)
	o.set("core.attempts", "count", float64(attempts), nil)
	o.set("routing.index_ms", "ms", ms(index), nil)
	o.set("routing.index_mb", "MiB", float64(indexBytes)/(1<<20), nil)
	return nil
}

// child is one repeated layer call of a replayed request.
type child struct {
	name string
	id   int32
	dur  time.Duration
}

// replayChildren repeats the layer calls the rfcd handler makes for q,
// one rerun span each under parent, and returns the layer spans (for the
// caller to adopt under the handler span) with a check of their results
// against the handler's response body.
func replayChildren(tr *tracer, parent int32, q *request, b *built) ([]child, func(body []byte) error) {
	var kids []child
	call := func(name string, fn func()) {
		rerun := tr.begin(rerunSpan, parent)
		id := tr.begin(name, rerun)
		fn()
		kids = append(kids, child{name, id, tr.end(id)})
		tr.end(rerun)
	}
	switch q.class {
	case classPath:
		var turn int
		var path []int32
		call("routing.minturn", func() { turn = b.ix.MinTurn(q.src, q.dst) })
		if turn >= 0 {
			call("routing.pathat", func() {
				path = b.ud.PathAt(q.src, q.dst, turn, rng.At(q.seed, rng.StringCoord("rfcd/path"), uint64(q.src), uint64(q.dst)))
			})
		}
		return kids, func(body []byte) error {
			var resp service.PathResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if resp.MinTurn == nil || *resp.MinTurn != turn || !slices.Equal(resp.Path, path) {
				return errors.New("path differs from the handler's")
			}
			return nil
		}
	case classPaths:
		paths := make([][]int32, len(q.pairs))
		call("routing.paths", func() {
			for i, p := range q.pairs {
				if turn := b.ix.MinTurn(p[0], p[1]); turn >= 0 {
					paths[i] = b.ud.PathAt(p[0], p[1], turn,
						rng.At(q.seed, rng.StringCoord("rfcd/path"), uint64(p[0]), uint64(p[1])))
				}
			}
		})
		return kids, func(body []byte) error {
			var resp service.PathsResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if len(resp.Paths) != len(paths) {
				return errors.New("batch size differs from the handler's")
			}
			for i := range paths {
				if !slices.Equal(resp.Paths[i].Path, paths[i]) {
					return fmt.Errorf("batch path %d differs from the handler's", i)
				}
			}
			return nil
		}
	case classFaults:
		var faulty *topology.Clos
		var conn bool
		var ud *routing.UpDown
		var unr int
		call("topology.clone_faults", func() {
			faulty = b.c.Clone()
			links := faulty.Links()
			r := rng.At(q.seed, rng.StringCoord("rfcd/faults"))
			r.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
			for _, l := range links[:min(q.links, len(links))] {
				faulty.RemoveLink(l.A, l.B)
			}
		})
		call("graph.connected", func() { conn = faulty.SwitchGraph().IsConnected() })
		call("routing.rebuild", func() { ud = routing.New(faulty) })
		call("routing.unroutable", func() { unr = ud.UnroutablePairs(0) })
		return kids, func(body []byte) error {
			var resp service.FaultsResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if resp.Connected != conn || resp.UnroutablePairs != unr {
				return errors.New("fault outcome differs from the handler's")
			}
			return nil
		}
	default: // classThroughput
		var net *flow.ClosNetwork
		var m []traffic.Demand
		var res *flow.Result
		var err error
		call("flow.network", func() { net = flow.NewClos(b.c, b.ud, b.ix) })
		stream := rng.At(q.seed, rng.StringCoord("rfcd/throughput"))
		call("traffic.matrix", func() {
			if m, err = traffic.NewMatrix(q.matrix, net.Terminals(), stream); err == nil {
				m = traffic.ScaleMatrix(m, q.load)
			}
		})
		if err == nil {
			var s solveSpans
			s, res, err = tracedSolve(tr, parent, net, m, flow.Options{Seed: stream.Uint64()})
			kids = append(kids, child{"flow.solve", s.id, s.solve})
		}
		return kids, func(body []byte) error {
			var resp service.ThroughputResponse
			if err != nil {
				return err
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return err
			}
			if resp.Rounds != res.Rounds || resp.Flows != res.Flows || resp.Accepted != res.Accepted {
				return errors.New("allocation differs from the handler's")
			}
			return nil
		}
	}
}
