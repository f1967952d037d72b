package main

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strconv"

	"rfclos/internal/rng"
	"rfclos/internal/service"
)

// class is one rfcd request type of the rfcd-query mix.
type class uint8

const (
	classPath class = iota
	classPaths
	classFaults
	classThroughput
	numClasses
)

var classNames = [numClasses]string{"path", "paths", "faults", "throughput"}

func (c class) String() string { return classNames[c] }

// classShare is each class's share of the mix in percent (they sum to 100).
var classShare = [numClasses]int{70, 25, 3, 2}

// The three builds the rfcd-query workload serves.
const (
	topoXGFT     = iota // 65,536 leaves: succinct index tier
	topoRFCLarge        // the paper's 11K-terminal RFC: dense tier
	topoRFCSmall        // 1K-terminal RFC: faults and throughput target
	numTopos
)

// querySpecs are the POST /v1/topology bodies of the rfcd-query set-up.
var querySpecs = [numTopos]service.Spec{
	topoXGFT:     {Kind: "xgft", M: []int{4, 8, 8192}, W: []int{1, 8, 2}, Radix: 8192},
	topoRFCLarge: {Kind: "rfc", Radix: 36, Levels: 3, Leaves: 648, Seed: 1},
	topoRFCSmall: {Kind: "rfc", Radix: 16, Levels: 3, Leaves: 128, Seed: 1},
}

// topoInfo is what the mix needs to know about one build: its cache key,
// leaf-switch count and wire count (see topoInfos).
type topoInfo struct {
	key    string
	leaves int
	wires  int
}

// request is one generated rfcd request: the HTTP form sent to rfcd plus
// the decoded parameters the traced replay calls the layers with.
type request struct {
	class  class
	topo   int
	method string
	target string // path and query
	body   []byte // POST body, nil for GET

	src, dst int
	seed     uint64
	pairs    [][2]int
	links    int
	matrix   string
	load     float64
}

const (
	hotRows       = 8  // hot source leaves per topology
	hotPercent    = 80 // share of path sources drawn from the hot rows
	pathsBatch    = 64 // pairs per POST /v1/paths
	faultsPercent = 2  // wires dropped by GET /v1/faults, in percent
	faultSeeds    = 8  // faults requests rotate through seeds 1..faultSeeds
	throughputLd  = 0.8
)

// buildMix draws n requests from seed over the builds in topos. The same
// seed and builds always give the same sequence.
func buildMix(seed uint64, n int, topos [numTopos]topoInfo) []request {
	r := rng.At(seed, rng.StringCoord("perfbench/mix"))
	var hot [numTopos][hotRows]int
	for t := range hot {
		for i := range hot[t] {
			hot[t][i] = r.Intn(topos[t].leaves)
		}
	}
	source := func(t int) int {
		if r.Intn(100) < hotPercent {
			return hot[t][r.Intn(hotRows)]
		}
		return r.Intn(topos[t].leaves)
	}
	// Classes are dealt from a shuffled deck of 100 cards holding each
	// class's share, so every seed gets the same class mix (to within one
	// partial deck) and only the order and parameters vary.
	var deck []class
	for c, share := range classShare {
		for i := 0; i < share; i++ {
			deck = append(deck, class(c))
		}
	}
	out := make([]request, 0, n)
	faults := 0
	for len(out) < n {
		if len(out)%len(deck) == 0 {
			r.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		var q request
		switch deck[len(out)%len(deck)] {
		case classPath:
			q.class = classPath
			q.topo = topoXGFT
			if r.Bool() {
				q.topo = topoRFCLarge
			}
			q.src, q.dst = source(q.topo), r.Intn(topos[q.topo].leaves)
			q.seed = 1 + uint64(r.Intn(4))
			v := url.Values{}
			v.Set("key", topos[q.topo].key)
			v.Set("src", strconv.Itoa(q.src))
			v.Set("dst", strconv.Itoa(q.dst))
			v.Set("seed", strconv.FormatUint(q.seed, 10))
			q.method, q.target = "GET", "/v1/path?"+v.Encode()
		case classPaths:
			q.class, q.topo, q.seed = classPaths, topoXGFT, 1
			q.pairs = make([][2]int, pathsBatch)
			for i := range q.pairs {
				q.pairs[i] = [2]int{r.Intn(topos[q.topo].leaves), r.Intn(topos[q.topo].leaves)}
			}
			q.method, q.target = "POST", "/v1/paths"
			q.body = mustJSON(service.PathsRequest{Key: topos[q.topo].key, Pairs: q.pairs, Seed: q.seed})
		case classFaults:
			q.class, q.topo = classFaults, topoRFCSmall
			q.links = topos[q.topo].wires * faultsPercent / 100
			q.seed = 1 + uint64(faults%faultSeeds)
			faults++
			v := url.Values{}
			v.Set("key", topos[q.topo].key)
			v.Set("links", strconv.Itoa(q.links))
			v.Set("seed", strconv.FormatUint(q.seed, 10))
			q.method, q.target = "GET", "/v1/faults?"+v.Encode()
		default:
			q.class, q.topo = classThroughput, topoRFCSmall
			q.matrix = "uniform"
			if r.Bool() {
				q.matrix = "storm"
			}
			q.load, q.seed = throughputLd, 1+uint64(r.Intn(8))
			q.method, q.target = "POST", "/v1/throughput"
			q.body = mustJSON(service.ThroughputRequest{Key: topos[q.topo].key,
				Matrix: q.matrix, Load: q.load, Seed: q.seed})
		}
		out = append(out, q)
	}
	return out
}

// mustJSON encodes a request body; the types encoded here cannot fail.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding %T: %v", v, err))
	}
	return b
}
