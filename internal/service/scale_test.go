package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"rfclos/internal/rng"
)

// scaleSpec is the ≥64K-leaf acceptance topology: a 3-level XGFT with
// N1 = 65536 leaves, N2 = 1024, N3 = 8 (66568 switches). Its dense turn
// table would be N1² = 4 GiB; the succinct tier indexes it in tens of
// megabytes.
func scaleSpec() Spec {
	return Spec{Kind: "xgft", M: []int{4, 256, 256}, W: []int{1, 4, 2}, Radix: 258}
}

// TestLargeTopologySuccinctServing is the scale acceptance test: a 64K-leaf
// topology builds, gets a succinct index at ≤ 10% of the dense footprint
// (asserted via SizeBytes), and answers GET /v1/path through rfcd's handler
// stack — all without the dense N1² table. The succinct index builds from
// the covers' runs, so the whole test takes well under a second; it is
// still skipped under -short with the other large builds, and CI runs the
// three as a dedicated smoke step under GOMEMLIMIT.
func TestLargeTopologySuccinctServing(t *testing.T) {
	if testing.Short() {
		t.Skip("large-topology smoke test skipped in -short mode")
	}
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(scaleSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/topology", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sum TopologySummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/topology: status %d", resp.StatusCode)
	}
	if sum.IndexLeaves != 65536 {
		t.Fatalf("IndexLeaves = %d, want 65536", sum.IndexLeaves)
	}
	if sum.IndexTier != "succinct" {
		t.Fatalf("IndexTier = %q, want succinct (dense table must not build at 64K leaves)", sum.IndexTier)
	}
	dense := int64(sum.IndexLeaves) * int64(sum.IndexLeaves)
	if int64(sum.IndexBytes)*10 > dense {
		t.Fatalf("IndexBytes = %d, want <= 10%% of the dense equivalent %d", sum.IndexBytes, dense)
	}
	if !sum.Routable {
		t.Fatal("the XGFT must be routable")
	}

	if sum.CoverBytes <= 0 || sum.CoverRepr == "" {
		t.Fatalf("summary missing cover accounting: bytes=%d repr=%q", sum.CoverBytes, sum.CoverRepr)
	}

	// Path query through the full handler stack, leaf 0 to the last leaf.
	resp, err = http.Get(ts.URL + "/v1/path?key=" + sum.Key + "&src=0&dst=65535")
	if err != nil {
		t.Fatal(err)
	}
	var pr PathResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/path: status %d", resp.StatusCode)
	}
	if !pr.Routable || pr.MinTurn == nil || *pr.MinTurn <= 0 {
		t.Fatalf("path 0->65535 not served: %+v", pr)
	}
	if len(pr.Path) != 2**pr.MinTurn+1 {
		t.Fatalf("path length %d, want %d for turn %d", len(pr.Path), 2**pr.MinTurn+1, *pr.MinTurn)
	}

	// Sampled same-answers check at scale: the succinct index must agree
	// with the cover-set computation on random pairs (the exhaustive
	// dense-vs-succinct property runs at small scale in internal/routing).
	topo, ok := srv.Cache().Lookup(sum.Key)
	if !ok {
		t.Fatal("built topology missing from cache")
	}

	// Compressed-cover acceptance: the router's cover memory must be at
	// most 10% of what the pre-compression representation would cost (one
	// N1-bit bitset per non-nil cover set).
	plain := plainCoverCost(topo)
	if int64(sum.CoverBytes)*10 > plain {
		t.Fatalf("CoverBytes = %d, want <= 10%% of the plain-bitset cost %d", sum.CoverBytes, plain)
	}
	if got := topo.Router.CoverBytes(); got != sum.CoverBytes {
		t.Fatalf("summary CoverBytes %d != Router.CoverBytes %d", sum.CoverBytes, got)
	}

	r := rng.New(123)
	n := topo.Index.Leaves()
	for i := 0; i < 2000; i++ {
		src, dst := r.Intn(n), r.Intn(n)
		if got, want := topo.Index.MinTurn(src, dst), topo.Router.MinTurn(src, dst); got != want {
			t.Fatalf("MinTurn(%d, %d) = %d, cover sets say %d", src, dst, got, want)
		}
	}
}

// plainCoverCost is what the pre-compression cover representation would
// cost for t's router: one N1-bit bitset for every non-nil cover set
// (switches at levels 1..l-r for turn r, all levels for desc).
func plainCoverCost(t *Topology) int64 {
	l := t.Clos.Levels()
	words := int64((t.Clos.LevelSize(1) + 63) / 64)
	sets := int64(0)
	for r := 0; r < l; r++ {
		for lev := 1; lev <= l-r; lev++ {
			sets += int64(t.Clos.LevelSize(lev))
		}
	}
	return sets * words * 8
}

// paperScaleSpec is the paper-scale serving topology: a 3-level XGFT with
// N1 = 262144 leaves (1M terminals; the paper's 200K-terminal scenario C
// with headroom), N2 = 2048, N3 = 8. Its dense turn table would be 64 GiB
// and the old plain-bitset covers ~26 GB — only the compressed LeafSet
// covers plus the succinct index make it servable under GOMEMLIMIT=4GiB.
func paperScaleSpec() Spec {
	return Spec{Kind: "xgft", M: []int{4, 512, 512}, W: []int{1, 4, 2}, Radix: 514}
}

// TestPaperScaleServing builds the 262144-leaf topology and serves both
// GET /v1/path and a POST /v1/paths batch through the full handler stack.
// CI runs it under GOMEMLIMIT=4GiB next to the 64K smoke.
func TestPaperScaleServing(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke test skipped in -short mode")
	}
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(paperScaleSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/topology", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sum TopologySummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/topology: status %d", resp.StatusCode)
	}
	const n1 = 262144
	if sum.IndexLeaves != n1 {
		t.Fatalf("IndexLeaves = %d, want %d (maxSuccinctLeaves must admit paper scale)", sum.IndexLeaves, n1)
	}
	if sum.IndexTier != "succinct" {
		t.Fatalf("IndexTier = %q, want succinct", sum.IndexTier)
	}
	if !sum.Routable {
		t.Fatal("the XGFT must be routable")
	}
	// The covers must stay compressed: a few tens of MB, not the ~26 GB
	// plain bitsets would need. 1% of the plain cost is already generous.
	topo, ok := srv.Cache().Lookup(sum.Key)
	if !ok {
		t.Fatal("built topology missing from cache")
	}
	if plain := plainCoverCost(topo); int64(sum.CoverBytes)*100 > plain {
		t.Fatalf("CoverBytes = %d, want <= 1%% of the plain-bitset cost %d", sum.CoverBytes, plain)
	}

	// The arena→CSR acceptance at 262144 leaves: the CSR level store must
	// stay measurably below the old [][]int32 arena footprint — 8 bytes per
	// wire in each direction plus two 24-byte slice headers per switch,
	// which per-switch headers dominated at this scale.
	arena := int64(topo.Clos.Wires())*8 + int64(topo.Clos.NumSwitches())*48
	if got := int64(topo.Clos.StoreBytes()); got*4 > arena*3 {
		t.Fatalf("StoreBytes = %d, want <= 75%% of the old arena cost %d", got, arena)
	}

	// The topology-store gauge must account exactly the cached build's CSR
	// + overlay bytes.
	if got, want := srv.Metrics().Value("rfcd_topology_bytes"), int64(topo.Clos.StoreBytes()); got != want {
		t.Fatalf("rfcd_topology_bytes = %d, want %d", got, want)
	}

	resp, err = http.Get(ts.URL + "/v1/path?key=" + sum.Key + "&src=0&dst=262143")
	if err != nil {
		t.Fatal(err)
	}
	var pr PathResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/path: status %d", resp.StatusCode)
	}
	if !pr.Routable || pr.MinTurn == nil || *pr.MinTurn <= 0 {
		t.Fatalf("path 0->262143 not served: %+v", pr)
	}

	// Batch endpoint at scale: the pairs span near/far destinations; each
	// result must agree with the router's own answer.
	pairs := [][2]int{{0, 262143}, {0, 1}, {5, 5}, {131072, 42}}
	payload, err := json.Marshal(PathsRequest{Key: sum.Key, Pairs: pairs, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/paths", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var batch PathsResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/paths: status %d", resp.StatusCode)
	}
	if batch.Count != len(pairs) || len(batch.Paths) != len(pairs) {
		t.Fatalf("batch returned %d/%d results, want %d", batch.Count, len(batch.Paths), len(pairs))
	}
	for i, pair := range pairs {
		res := batch.Paths[i]
		want := topo.Router.MinTurn(pair[0], pair[1])
		if res.MinTurn == nil || *res.MinTurn != want {
			t.Fatalf("batch pair %v MinTurn = %v, router says %d", pair, res.MinTurn, want)
		}
		if !res.Routable {
			t.Fatalf("batch pair %v not routable", pair)
		}
		if wantHops := 2 * want; res.Hops != wantHops {
			t.Fatalf("batch pair %v hops = %d, want %d", pair, res.Hops, wantHops)
		}
	}
}

// millionSwitchSpec is the >1M-switch serving topology the CSR level store
// exists for: a 3-level XGFT with N1 = N2 = 524288 and N3 = 16 — 1,048,592
// switches, 2,097,152 terminals, ~5.2M wires. The old arena representation
// charged ~50 MB of per-switch slice headers on top of the wire data; the
// CSR store is two flat arrays per level/direction, and the streamed build
// never materialises wiring scratch and uncompressed covers together.
func millionSwitchSpec() Spec {
	return Spec{Kind: "xgft", M: []int{4, 8, 65536}, W: []int{1, 8, 2}, Radix: 65536}
}

// TestMillionSwitchServing is the >1M-switch smoke: the 524288-leaf build
// is wired level by level into the CSR store, indexed (succinct tier), and
// serves GET /v1/path and POST /v1/paths through the full handler stack.
// CI runs it under GOMEMLIMIT=4GiB next to the 64K and 262144-leaf smokes.
func TestMillionSwitchServing(t *testing.T) {
	if testing.Short() {
		t.Skip("million-switch smoke test skipped in -short mode")
	}
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body, err := json.Marshal(millionSwitchSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/topology", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sum TopologySummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/topology: status %d", resp.StatusCode)
	}
	const n1 = 524288
	if sum.IndexLeaves != n1 {
		t.Fatalf("IndexLeaves = %d, want %d (maxSuccinctLeaves must admit the million-switch build)", sum.IndexLeaves, n1)
	}
	if sum.IndexTier != "succinct" {
		t.Fatalf("IndexTier = %q, want succinct", sum.IndexTier)
	}
	if !sum.Routable {
		t.Fatal("the XGFT must be routable")
	}
	if sum.Switches <= 1<<20 {
		t.Fatalf("Switches = %d, want > 2^20", sum.Switches)
	}
	if sum.Terminals < 2<<20 {
		t.Fatalf("Terminals = %d, want >= 2M", sum.Terminals)
	}

	topo, ok := srv.Cache().Lookup(sum.Key)
	if !ok {
		t.Fatal("built topology missing from cache")
	}
	// The stored graph must stay wire-proportional: well under the old
	// arena's ~90 MB (wires*8 + switches*48) and its covers compressed.
	arena := int64(topo.Clos.Wires())*8 + int64(topo.Clos.NumSwitches())*48
	if got := int64(topo.Clos.StoreBytes()); got*4 > arena*3 {
		t.Fatalf("StoreBytes = %d, want <= 75%% of the old arena cost %d", got, arena)
	}
	if plain := plainCoverCost(topo); int64(topo.Router.CoverBytes())*100 > plain {
		t.Fatalf("CoverBytes = %d, want <= 1%% of the plain-bitset cost %d", topo.Router.CoverBytes(), plain)
	}

	resp, err = http.Get(ts.URL + "/v1/path?key=" + sum.Key + "&src=0&dst=524287")
	if err != nil {
		t.Fatal(err)
	}
	var pr PathResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/path: status %d", resp.StatusCode)
	}
	if !pr.Routable || pr.MinTurn == nil || *pr.MinTurn <= 0 {
		t.Fatalf("path 0->524287 not served: %+v", pr)
	}

	pairs := [][2]int{{0, 524287}, {0, 1}, {7, 7}, {262144, 99}}
	payload, err := json.Marshal(PathsRequest{Key: sum.Key, Pairs: pairs, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/paths", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var batch PathsResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/paths: status %d", resp.StatusCode)
	}
	if batch.Count != len(pairs) || len(batch.Paths) != len(pairs) {
		t.Fatalf("batch returned %d/%d results, want %d", batch.Count, len(batch.Paths), len(pairs))
	}
	for i, pair := range pairs {
		res := batch.Paths[i]
		want := topo.Router.MinTurn(pair[0], pair[1])
		if res.MinTurn == nil || *res.MinTurn != want || !res.Routable {
			t.Fatalf("batch pair %v MinTurn = %v routable=%v, router says %d", pair, res.MinTurn, res.Routable, want)
		}
	}
}
