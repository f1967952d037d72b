// Command rfcd is the topology-query daemon: an HTTP/JSON service answering
// topology, routing, expandability and fault queries over deterministic
// RFC / fat-tree / random-regular builds, with a content-addressed build
// cache and precomputed up/down route indexes (see internal/service and
// DESIGN.md, "Serving layer").
//
// Endpoints:
//
//	GET  /healthz                       liveness
//	GET  /metrics                       atomic counters (requests, cache, latency)
//	POST /v1/topology                   build (or fetch cached) + summary stats
//	GET  /v1/topology/{key}/export      adjacency JSON / Graphviz DOT / edge list
//	GET  /v1/path?key=&src=&dst=&seed=  one shortest up/down path
//	POST /v1/paths                      batch of src/dst pairs, one round trip
//	POST /v1/expand                     plan an R-terminal expansion step (§5, Thm 4.2)
//	GET  /v1/faults?key=&links=&seed=   connectivity + routability under random faults
//	POST /v1/throughput                 max-min-fair flow rates for a traffic matrix
//
// Usage:
//
//	rfcd -addr :8080 -cache 64 -cache-bytes 0 -dense-index-bytes 0
//	rfcd -selfcheck        # in-process endpoint smoke test, used by CI
//
// Route indexes are tiered: topologies whose dense N1² turn table fits
// -dense-index-bytes (default 64 MiB) get the O(1) dense table; larger ones
// get the succinct exception-coded index, so there is no hard leaf-count cap.
// -cache-bytes bounds the cache by estimated topology memory on top of the
// -cache entry count; exports stream with chunked transfer encoding.
//
// The server shuts down gracefully on SIGINT/SIGTERM, draining in-flight
// requests.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rfclos/internal/service"
	"rfclos/internal/service/client"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheSize  = flag.Int("cache", 64, "topology cache capacity (LRU entries)")
		cacheBytes = flag.Int64("cache-bytes", 0, "cache byte budget over estimated topology memory (0 = 8 GiB default, negative = unlimited)")
		denseIndex = flag.Int("dense-index-bytes", 0, "largest dense route-index table in bytes before switching to the succinct tier (0 = 64 MiB default, negative = always dense)")
		selfcheck  = flag.Bool("selfcheck", false, "run the endpoint smoke test against an in-process server and exit")
	)
	flag.Parse()

	if *selfcheck {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		err := client.Selfcheck(ctx, os.Stdout)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rfcd: selfcheck failed:", err)
			os.Exit(1)
		}
		fmt.Println("rfcd: selfcheck passed")
		return
	}

	opts := service.Options{
		CacheSize:       *cacheSize,
		CacheBytes:      *cacheBytes,
		DenseIndexBytes: *denseIndex,
	}
	if err := run(*addr, opts); err != nil {
		fmt.Fprintln(os.Stderr, "rfcd:", err)
		os.Exit(1)
	}
}

func run(addr string, opts service.Options) error {
	srv := service.New(opts)
	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Printf("rfcd: serving on %s (cache %d)\n", addr, opts.CacheSize)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Println("rfcd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
