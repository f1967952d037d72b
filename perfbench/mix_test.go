package main

import (
	"reflect"
	"sort"
	"testing"
)

func TestTopoInfos(t *testing.T) {
	topos := topoInfos()
	if topos[topoXGFT].leaves != 65536 || topos[topoRFCLarge].leaves != 648 || topos[topoRFCSmall].wires != 2048 {
		t.Errorf("unexpected build sizes %+v", topos)
	}
	if topos[topoXGFT].key == topos[topoRFCLarge].key {
		t.Error("builds share a cache key")
	}
}

func TestMixIsSeeded(t *testing.T) {
	topos := topoInfos()
	a, b := buildMix(42, 500, topos), buildMix(42, 500, topos)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if reflect.DeepEqual(a, buildMix(43, 500, topos)) {
		t.Fatal("different seeds gave the same request sequence")
	}
	if !reflect.DeepEqual(a[:100], buildMix(42, 100, topos)) {
		t.Fatal("a shorter mix is not a prefix of a longer one")
	}
}

func TestMixShares(t *testing.T) {
	const n = 20000
	topos := topoInfos()
	mix := buildMix(7, n, topos)
	var count [numClasses]int
	pathTopo := map[int]int{}
	sources := map[[2]int]int{}
	for i, q := range mix {
		count[q.class]++
		switch q.class {
		case classPath:
			pathTopo[q.topo]++
			sources[[2]int{q.topo, q.src}]++
			if q.topo != topoXGFT && q.topo != topoRFCLarge || q.method != "GET" {
				t.Fatalf("request %d: path query %+v on the wrong build", i, q)
			}
		case classPaths:
			if q.topo != topoXGFT || len(q.pairs) != pathsBatch || q.method != "POST" {
				t.Fatalf("request %d: bad batch %+v", i, q)
			}
		case classFaults:
			if q.topo != topoRFCSmall || q.links != 40 || q.seed < 1 || q.seed > faultSeeds {
				t.Fatalf("request %d: bad faults query %+v", i, q)
			}
		case classThroughput:
			if q.topo != topoRFCSmall || q.load != 0.8 || (q.matrix != "uniform" && q.matrix != "storm") || q.seed < 1 || q.seed > 8 {
				t.Fatalf("request %d: bad throughput query %+v", i, q)
			}
		}
	}
	for c, got := range count {
		share := 100 * float64(got) / n
		if d := share - float64(classShare[c]); d < -1 || d > 1 {
			t.Errorf("class %s: %.2f%% of requests, want %d%%", class(c), share, classShare[c])
		}
	}
	if d := pathTopo[topoXGFT] - pathTopo[topoRFCLarge]; d < -count[classPath]/20 || d > count[classPath]/20 {
		t.Errorf("path queries split %v between the two large builds, want an even split", pathTopo)
	}
	// The hot rows dominate: on each build the eight most frequent sources
	// carry at least three quarters of its path queries.
	for _, topo := range []int{topoXGFT, topoRFCLarge} {
		var freq []int
		for k, c := range sources {
			if k[0] == topo {
				freq = append(freq, c)
			}
		}
		sort.Sort(sort.Reverse(sort.IntSlice(freq)))
		top := 0
		for _, c := range freq[:hotRows] {
			top += c
		}
		if 4*top < 3*pathTopo[topo] {
			t.Errorf("build %d: top %d sources carry %d of %d path queries", topo, hotRows, top, pathTopo[topo])
		}
	}
}

func TestFaultSeedsRotate(t *testing.T) {
	var seeds []uint64
	for _, q := range buildMix(3, 2000, topoInfos()) {
		if q.class == classFaults {
			seeds = append(seeds, q.seed)
		}
	}
	for i, s := range seeds {
		if s != uint64(i%faultSeeds)+1 {
			t.Fatalf("faults request %d uses seed %d, want %d", i, s, i%faultSeeds+1)
		}
	}
}
