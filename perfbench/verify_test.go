package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rfclos/internal/service"
)

// answered serves pool on a fresh in-process server, as a live rfcd would,
// returning the build summaries and one sample per request.
func answered(t *testing.T, pool []request) ([numTopos][]byte, []sample) {
	t.Helper()
	h := service.New(service.Options{}).Handler()
	var sums [numTopos][]byte
	for i, body := range buildBodies() {
		rec := serve(h, "POST", "/v1/topology", body)
		if rec.Code != 200 {
			t.Fatalf("build %d: HTTP %d: %s", i, rec.Code, rec.Body)
		}
		sums[i] = rec.Body.Bytes()
	}
	samples := make([]sample, len(pool))
	for i := range pool {
		rec := serve(h, pool[i].method, pool[i].target, pool[i].body)
		samples[i] = sample{idx: i, code: rec.Code, body: rec.Body.Bytes()}
	}
	return sums, samples
}

func TestVerifyQueryCatchesAFlippedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 65,536-leaf XGFT twice")
	}
	// Enough requests that every class appears.
	pool := buildMix(5, 200, topoInfos())
	sums, samples := answered(t, pool)
	seen := map[class]bool{}
	for _, q := range pool {
		seen[q.class] = true
	}
	if len(seen) != int(numClasses) {
		t.Fatalf("test mix covers only %d classes", len(seen))
	}

	verify := func(samples []sample) *outcome {
		o := newOutcome()
		verifyQuery(o, service.New(service.Options{}).Handler(), pool, samples, sums)
		return o
	}
	if o := verify(samples); !o.correct() || o.attempted != numTopos+len(pool) {
		t.Fatalf("clean responses: attempted %d failed %d, failures %v", o.attempted, o.failed, o.failures)
	}

	for _, c := range []class{classPath, classPaths, classFaults, classThroughput} {
		bad := append([]sample(nil), samples...)
		for i := range bad {
			if pool[bad[i].idx].class == c {
				body := bytes.Clone(bad[i].body)
				body[len(body)/2] ^= 1
				bad[i].body = body
				break
			}
		}
		if o := verify(bad); o.correct() || o.failed != 1 {
			t.Errorf("one flipped byte in a %s response: failed %d, want 1", c, o.failed)
		}
	}

	bad := append([]sample(nil), samples...)
	bad[0].code = 500
	if o := verify(bad); o.failed != 1 {
		t.Errorf("an HTTP 500: failed %d, want 1", o.failed)
	}
	badSums := sums
	badSums[topoRFCSmall] = bytes.Replace(sums[topoRFCSmall], []byte(`"cached":false`), []byte(`"cached":true`), 1)
	o := newOutcome()
	verifyQuery(o, service.New(service.Options{}).Handler(), pool, samples, badSums)
	if o.failed != 1 {
		t.Errorf("a wrong build summary: failed %d, want 1", o.failed)
	}
}

func TestInstanceSeeds(t *testing.T) {
	w := exhibitWorkloads["paper-flowscale"]
	seeds := w.instanceSeeds(goldenSeed)
	if len(seeds) != w.instances || seeds[0] != goldenSeed {
		t.Fatalf("instance seeds %v: want %d starting with the workload seed", seeds, w.instances)
	}
	if !slices.Equal(seeds, w.instanceSeeds(goldenSeed)) {
		t.Fatal("the same workload seed gave different instance seeds")
	}
	other := w.instanceSeeds(goldenSeed + 1)
	for _, s := range seeds {
		if slices.Contains(other, s) {
			t.Fatalf("workload seeds %d and %d share instance seed %d", goldenSeed, goldenSeed+1, s)
		}
	}
}

func TestGoldenMismatchFailsARun(t *testing.T) {
	for _, w := range exhibitWorkloads {
		ref, what, err := exhibitReference(context.Background(), env{root: ".."}, w, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := os.ReadFile(filepath.Join("..", "internal", "exhibit", "testdata", "golden", w.id+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, golden) {
			t.Fatalf("%s: reference at the golden seed is %s, not the golden file", w.name, what)
		}

		o := newOutcome()
		checkOutputs(o, w.name, [][]byte{golden, golden}, ref, what)
		if !o.correct() || o.attempted != 2 {
			t.Errorf("%s: golden outputs fail the check: %v", w.name, o.failures)
		}
		flipped := bytes.Clone(golden)
		flipped[len(flipped)-2] ^= 1
		o = newOutcome()
		checkOutputs(o, w.name, [][]byte{golden, flipped, golden}, ref, what)
		if o.correct() || o.failed != 1 || o.attempted != 3 {
			t.Errorf("%s: a flipped byte gave failed %d of %d", w.name, o.failed, o.attempted)
		}
	}
}
