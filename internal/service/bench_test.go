package service_test

import (
	"net/http/httptest"
	"testing"

	"rfclos/internal/service"
)

// BenchmarkCachedPath measures GET /v1/path throughput against a warm
// cache through the full HTTP stack (in-process server + net/http client),
// the serving-layer datapoint of BENCH_engine.json. Reported in req/sec.
func BenchmarkCachedPath(b *testing.B) {
	ts := httptest.NewServer(service.New(service.Options{}).Handler())
	defer ts.Close()

	sum, err := build(ts.URL, service.Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: 48, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	n1 := sum.IndexLeaves
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := get(ts.URL, pathQuery(sum.Key, i%n1, (i*7+3)%n1, uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/sec")
}
