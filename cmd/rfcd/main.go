// Command rfcd is the topology-query daemon: an HTTP/JSON service answering
// topology, routing, expandability and fault queries over deterministic
// RFC / fat-tree / random-regular builds, with a content-addressed build
// cache and precomputed up/down route indexes (see internal/service and
// DESIGN.md, "Serving layer").
//
// Endpoints:
//
//	GET  /healthz                       liveness
//	GET  /metrics                       request, cache, build and error counters,
//	                                    build/index time totals, cache byte gauges
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
//	rfcd -addr :8080 -cache-bytes 0
//
// Route indexes are tiered: topologies whose dense N1² turn table fits
// 64 MiB get the O(1) dense table; larger ones get the succinct
// exception-coded index, so there is no hard leaf-count cap. -cache-bytes
// bounds the cache by estimated topology memory, on top of a fixed
// 64-entry cap; exports stream with chunked transfer encoding.
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
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		cacheBytes = flag.Int64("cache-bytes", 0, "cache byte budget over estimated topology memory (0 = 8 GiB default, negative = unlimited)")
	)
	flag.Parse()

	if err := run(*addr, service.Options{CacheBytes: *cacheBytes}); err != nil {
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
		fmt.Printf("rfcd: serving on %s\n", addr)
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
