package client

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strings"

	"rfclos/internal/service"
	"rfclos/internal/topology"
)

// Selfcheck starts an in-process rfcd server on a loopback port and drives
// this client through every endpoint, asserting the serving invariants:
// the second identical build is a cache hit served without a rebuild,
// /v1/path responses are byte-identical across repeats, exports match the
// offline encoders, and /metrics reflects the traffic. It is the smoke
// test `rfcd -selfcheck` and CI run; any violation is returned as an
// error. Every request runs under ctx, so the caller sets the deadline.
// Progress lines go to out (nil discards them).
func Selfcheck(ctx context.Context, out io.Writer) error {
	if out == nil {
		out = io.Discard
	}
	srv := service.New(service.Options{CacheSize: 8})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(ln)
	defer hs.Close()

	c := New("http://" + ln.Addr().String())
	step := func(format string, args ...any) { fmt.Fprintf(out, "selfcheck: "+format+"\n", args...) }

	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	step("healthz ok")

	sp := service.Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: 48, Seed: 1}
	first, err := c.Build(ctx, sp)
	if err != nil {
		return fmt.Errorf("build: %w", err)
	}
	if first.Cached {
		return fmt.Errorf("first build of %s reported cached", first.Canonical)
	}
	if !first.Routable {
		return fmt.Errorf("build %s not routable", first.Canonical)
	}
	if first.IndexTier != "dense" {
		return fmt.Errorf("index tier for the %d-leaf build = %q, want dense", first.IndexLeaves, first.IndexTier)
	}
	second, err := c.Build(ctx, sp)
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	if !second.Cached {
		return fmt.Errorf("second build of %s was not a cache hit", first.Canonical)
	}
	if got := srv.Cache().BuildsFor(first.Key); got != 1 {
		return fmt.Errorf("key %s built %d times, want 1", first.Key, got)
	}
	step("topology %s built once, second request hit the cache", first.Key)

	p1, err := c.PathBytes(ctx, first.Key, 0, first.IndexLeaves-1, 7)
	if err != nil {
		return fmt.Errorf("path: %w", err)
	}
	p2, err := c.PathBytes(ctx, first.Key, 0, first.IndexLeaves-1, 7)
	if err != nil {
		return fmt.Errorf("path repeat: %w", err)
	}
	if !bytes.Equal(p1, p2) {
		return fmt.Errorf("path responses differ across repeats:\n%s\n%s", p1, p2)
	}
	step("path query deterministic (%d bytes)", len(p1))

	// Batch path queries must agree element-wise with the corresponding
	// single-path responses under the same seed.
	pairs := [][2]int{{0, first.IndexLeaves - 1}, {1, 2}, {3, 3}, {first.IndexLeaves - 1, 0}}
	batch, err := c.Paths(ctx, first.Key, pairs, 7)
	if err != nil {
		return fmt.Errorf("paths batch: %w", err)
	}
	if batch.Count != len(pairs) || len(batch.Paths) != len(pairs) {
		return fmt.Errorf("paths batch returned %d/%d results, want %d", batch.Count, len(batch.Paths), len(pairs))
	}
	for i, pair := range pairs {
		single, err := c.Path(ctx, first.Key, pair[0], pair[1], 7)
		if err != nil {
			return fmt.Errorf("path for batch pair %v: %w", pair, err)
		}
		got := batch.Paths[i]
		if got.Src != single.Src || got.Dst != single.Dst || got.Routable != single.Routable ||
			got.Hops != single.Hops || !slices.Equal(got.Path, single.Path) ||
			(got.MinTurn == nil) != (single.MinTurn == nil) ||
			(got.MinTurn != nil && *got.MinTurn != *single.MinTurn) {
			return fmt.Errorf("batch result %d for pair %v differs from the single query", i, pair)
		}
	}
	step("batch /v1/paths agrees with %d single queries", len(pairs))

	// Exports must be byte-identical to the offline encoders applied to an
	// independent build of the same spec (the shared-encoder guarantee
	// rfcgen -format relies on).
	norm, err := sp.Normalize()
	if err != nil {
		return err
	}
	offline, err := service.Build(norm)
	if err != nil {
		return fmt.Errorf("offline rebuild: %w", err)
	}
	for _, format := range topology.ExportFormats() {
		got, err := c.Export(ctx, first.Key, format)
		if err != nil {
			return fmt.Errorf("export %s: %w", format, err)
		}
		var want bytes.Buffer
		if err := topology.Export(offline.Clos, format, &want); err != nil {
			return err
		}
		if !bytes.Equal(got, want.Bytes()) {
			return fmt.Errorf("online %s export differs from the offline encoder", format)
		}
	}
	step("exports byte-identical to offline encoders (%s)", strings.Join(topology.ExportFormats(), ", "))

	exp, err := c.Expand(ctx, service.ExpandRequest{Key: first.Key, Increments: 1})
	if err != nil {
		return fmt.Errorf("expand: %w", err)
	}
	if exp.TerminalsAfter-exp.TerminalsBefore != sp.Radix {
		return fmt.Errorf("expand added %d terminals, want %d", exp.TerminalsAfter-exp.TerminalsBefore, sp.Radix)
	}
	step("expand +1 increment: %d -> %d terminals, %d links rewired, routable=%v",
		exp.TerminalsBefore, exp.TerminalsAfter, exp.RewiredLinks, exp.Routable)

	flt, err := c.Faults(ctx, first.Key, 5, 3)
	if err != nil {
		return fmt.Errorf("faults: %w", err)
	}
	if flt.LinksRemoved != 5 {
		return fmt.Errorf("faults removed %d links, want 5", flt.LinksRemoved)
	}
	step("faults -5 links: connected=%v routable=%v unroutable_pairs=%d",
		flt.Connected, flt.Routable, flt.UnroutablePairs)

	// The flow-level solver must be deterministic against the cached build:
	// identical requests return identical summaries, feasible per terminal.
	treq := service.ThroughputRequest{Key: first.Key, Matrix: "uniform", Load: 1, Seed: 7}
	thr1, err := c.Throughput(ctx, treq)
	if err != nil {
		return fmt.Errorf("throughput: %w", err)
	}
	thr2, err := c.Throughput(ctx, treq)
	if err != nil {
		return fmt.Errorf("throughput repeat: %w", err)
	}
	if *thr1 != *thr2 {
		return fmt.Errorf("throughput responses differ across repeats: %+v vs %+v", thr1, thr2)
	}
	if thr1.Accepted <= 0 || thr1.Accepted > 1 || thr1.Unroutable != 0 {
		return fmt.Errorf("throughput summary implausible: %+v", thr1)
	}
	step("throughput deterministic: accepted=%.4f min=%.4f jain=%.4f rounds=%d",
		thr1.Accepted, thr1.MinRate, thr1.Jain, thr1.Rounds)

	metrics, err := c.MetricsText(ctx)
	if err != nil {
		return fmt.Errorf("metrics: %w", err)
	}
	for _, want := range []string{
		"rfcd_cache_hits_total 1",
		"rfcd_cache_misses_total 1",
		"rfcd_builds_total 1",
	} {
		if !strings.Contains(metrics, want) {
			return fmt.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	step("metrics ok")
	return nil
}
