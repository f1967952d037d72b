package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"rfclos/internal/service"
)

// get fetches base+path and returns the body, failing on a non-200 answer.
// It returns errors rather than failing the test, so goroutines may call it.
func get(base, path string) ([]byte, error) {
	resp, err := http.Get(base + path)
	if err != nil {
		return nil, err
	}
	return readOK(resp)
}

// post sends v as JSON to base+path and returns the body, failing on a
// non-200 answer.
func post(base, path string, v any) ([]byte, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	return readOK(resp)
}

func readOK(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: HTTP %d %s", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, body)
	}
	return body, nil
}

// build requests POST /v1/topology for sp and decodes the summary.
func build(base string, sp service.Spec) (service.TopologySummary, error) {
	var sum service.TopologySummary
	body, err := post(base, "/v1/topology", sp)
	if err == nil {
		err = json.Unmarshal(body, &sum)
	}
	return sum, err
}

func pathQuery(key string, src, dst int, seed uint64) string {
	return fmt.Sprintf("/v1/path?key=%s&src=%d&dst=%d&seed=%d", key, src, dst, seed)
}

// TestConcurrentRequestsSingleflightAndDeterminism is the serving-layer
// acceptance test: it fires >= 64 concurrent requests for a mix of
// identical and distinct topology keys against one shared server and
// asserts (a) singleflight — every key is built exactly once no matter how
// many requests raced on it, so rfcd_builds_total equals the number of
// distinct specs — and (b) determinism under concurrency — each /v1/path
// response is byte-identical to the same query answered by a fresh server
// that saw no concurrency at all. Run under -race in CI.
func TestConcurrentRequestsSingleflightAndDeterminism(t *testing.T) {
	specs := []service.Spec{
		{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1},
		{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 2},
		{Kind: "rfc", Radix: 8, Levels: 2, Leaves: 8, Seed: 1},
		{Kind: "cft", Radix: 8, Levels: 3},
	}
	const perSpec = 16 // 4 specs x 16 = 64 concurrent requests
	total := perSpec * len(specs)

	shared := httptest.NewServer(service.New(service.Options{}).Handler())
	defer shared.Close()

	type result struct {
		spec int
		sum  service.TopologySummary
		path []byte
		err  error
	}
	results := make([]result, total)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < total; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			start.Wait() // line every goroutine up before the first request
			res := result{spec: i % len(specs)}
			res.sum, res.err = build(shared.URL, specs[res.spec])
			if res.err == nil {
				// Vary (src, dst) within the spec so cached path lookups hit
				// different index rows concurrently.
				src := i % 4
				dst := res.sum.IndexLeaves - 1 - i%4
				res.path, res.err = get(shared.URL, pathQuery(res.sum.Key, src, dst, 7))
			}
			results[i] = res
		}(i)
	}
	start.Done()
	done.Wait()

	keys := map[int]string{}
	for i, res := range results {
		if res.err != nil {
			t.Fatalf("request %d (spec %d): %v", i, res.spec, res.err)
		}
		if prev, ok := keys[res.spec]; ok && prev != res.sum.Key {
			t.Fatalf("spec %d resolved to two keys: %s and %s", res.spec, prev, res.sum.Key)
		}
		keys[res.spec] = res.sum.Key
	}
	if len(keys) != len(specs) {
		t.Fatalf("%d distinct keys for %d distinct specs", len(keys), len(specs))
	}
	metrics, err := get(shared.URL, "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("rfcd_builds_total %d", len(specs)); !slices.Contains(strings.Split(string(metrics), "\n"), want) {
		t.Errorf("%d specs under %d concurrent requests each, want each built exactly once (%q):\n%s",
			len(specs), perSpec, want, metrics)
	}

	// A fresh, unshared server answering the same queries sequentially must
	// produce byte-identical path responses — concurrency and cache state
	// leave no trace in response bodies.
	fresh := httptest.NewServer(service.New(service.Options{}).Handler())
	defer fresh.Close()
	for i, res := range results {
		if _, err := build(fresh.URL, specs[res.spec]); err != nil {
			t.Fatal(err)
		}
		src := i % 4
		dst := res.sum.IndexLeaves - 1 - i%4
		want, err := get(fresh.URL, pathQuery(res.sum.Key, src, dst, 7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.path, want) {
			t.Fatalf("request %d: concurrent path response differs from fresh server:\n%s\n%s",
				i, res.path, want)
		}
	}
}

// TestConcurrentMixedEndpoints hammers every read endpoint at once over one
// cached build, for the race detector's benefit.
func TestConcurrentMixedEndpoints(t *testing.T) {
	ts := httptest.NewServer(service.New(service.Options{}).Handler())
	defer ts.Close()

	sp := service.Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 3}
	sum, err := build(ts.URL, sp)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			switch i % 4 {
			case 0:
				_, err = get(ts.URL, pathQuery(sum.Key, 0, 15, uint64(i+1)))
			case 1:
				_, err = get(ts.URL, "/v1/topology/"+sum.Key+"/export?format=dot")
			case 2:
				_, err = get(ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=4&seed=%d", sum.Key, i+1))
			case 3:
				_, err = post(ts.URL, "/v1/expand", service.ExpandRequest{Key: sum.Key, Increments: 1})
			}
			if err != nil {
				errs <- fmt.Errorf("worker %d: %w", i, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
