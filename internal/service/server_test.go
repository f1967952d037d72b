package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Options{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postJSON sends v to path and decodes the response into out, returning the
// status code.
func postJSON(t *testing.T, base, path string, v any, out any) int {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp.StatusCode
}

// getBody fetches path and returns status and raw body.
func getBody(t *testing.T, base, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func buildTopology(t *testing.T, base string, sp Spec) TopologySummary {
	t.Helper()
	var sum TopologySummary
	if code := postJSON(t, base, "/v1/topology", sp, &sum); code != http.StatusOK {
		t.Fatalf("POST /v1/topology %+v: HTTP %d", sp, code)
	}
	return sum
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	code, body := getBody(t, ts.URL, "/healthz")
	if code != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz: HTTP %d body %q", code, body)
	}
	code, body = getBody(t, ts.URL, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics: HTTP %d", code)
	}
	if !strings.Contains(string(body), `rfcd_requests_total{endpoint="GET /healthz"} 1`) {
		t.Errorf("metrics missing healthz request counter:\n%s", body)
	}
}

func TestTopologyEndpoint(t *testing.T) {
	srv, ts := newTestServer(t)
	sp := Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1}
	sum := buildTopology(t, ts.URL, sp)
	if sum.Cached {
		t.Error("first build reported cached")
	}
	if !sum.Routable {
		t.Error("rfc build not routable")
	}
	if sum.Terminals != 16*8/2 {
		t.Errorf("terminals = %d, want %d", sum.Terminals, 16*8/2)
	}
	if sum.Switches != 2*16+8 {
		t.Errorf("switches = %d, want %d", sum.Switches, 2*16+8)
	}
	if sum.IndexLeaves != 16 || sum.IndexTier != "dense" {
		t.Errorf("index_leaves = %d, index_tier = %q, want a precomputed 16-leaf dense index", sum.IndexLeaves, sum.IndexTier)
	}
	if sum.XParam == nil || sum.ThresholdRadix == nil {
		t.Error("rfc summary missing Theorem 4.2 fields")
	}
	again := buildTopology(t, ts.URL, sp)
	if !again.Cached {
		t.Error("second build was not a cache hit")
	}
	if n := counterValue(srv.reg, metricBuilds); n != 1 {
		t.Errorf("%s = %d after two requests for one spec, want 1", metricBuilds, n)
	}
	// Apart from Cached, the two summaries must agree byte-for-byte.
	again.Cached = sum.Cached
	a, _ := json.Marshal(sum)
	b, _ := json.Marshal(again)
	if !bytes.Equal(a, b) {
		t.Errorf("summaries differ beyond the cached flag:\n%s\n%s", a, b)
	}

	if code := postJSON(t, ts.URL, "/v1/topology", Spec{Kind: "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown kind: HTTP %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/v1/topology", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestIndexBytesIgnoreTraffic pins index_bytes as a pure function of the
// spec: a succinct-tier build reports the same footprint before and after
// path traffic, and the cache's charge for it stays equal to the entry's
// live MemBytes. The server's build swaps in a succinct index (a 100-byte
// dense budget), so a 16-leaf fabric exercises that tier.
func TestIndexBytesIgnoreTraffic(t *testing.T) {
	srv := New(Options{})
	srv.cache.build = func(sp Spec) (*Topology, error) {
		topo, err := Build(sp, nil)
		if err == nil {
			topo.Index = routing.NewTurnIndex(topo.Router, 100)
		}
		return topo, err
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	sp := Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1}
	before := buildTopology(t, ts.URL, sp)
	if before.IndexTier != "succinct" {
		t.Fatalf("index_tier = %q, want succinct under a 100-byte dense budget", before.IndexTier)
	}
	for i := 0; i < 70; i++ {
		q := fmt.Sprintf("/v1/path?key=%s&src=0&dst=%d&seed=%d", before.Key, 1+i%15, i)
		if code, body := getBody(t, ts.URL, q); code != http.StatusOK {
			t.Fatalf("%s: HTTP %d body %s", q, code, body)
		}
	}
	after := buildTopology(t, ts.URL, sp)
	if after.IndexBytes != before.IndexBytes {
		t.Errorf("index_bytes = %d after path traffic, was %d", after.IndexBytes, before.IndexBytes)
	}
	topo, ok := srv.Cache().Lookup(before.Key)
	if !ok {
		t.Fatal("built topology missing from cache")
	}
	if got, want := cacheBytes(srv.cache), topo.MemBytes(); got != want {
		t.Errorf("cache charged %d bytes, entry's MemBytes is now %d", got, want)
	}
}

func TestExportEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	sp := Spec{Kind: "cft", Radix: 8, Levels: 3}
	sum := buildTopology(t, ts.URL, sp)

	norm, err := sp.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	offline, err := Build(norm, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range topology.ExportFormats() {
		code, got := getBody(t, ts.URL, "/v1/topology/"+sum.Key+"/export?format="+format)
		if code != http.StatusOK {
			t.Fatalf("export %s: HTTP %d", format, code)
		}
		var want bytes.Buffer
		if err := topology.Export(offline.Clos, format, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("online %s export differs from offline encoder", format)
		}
	}
	// Default format is json.
	code, def := getBody(t, ts.URL, "/v1/topology/"+sum.Key+"/export")
	codeJSON, asJSON := getBody(t, ts.URL, "/v1/topology/"+sum.Key+"/export?format=json")
	if code != http.StatusOK || codeJSON != http.StatusOK || !bytes.Equal(def, asJSON) {
		t.Error("default export format is not json")
	}
	if code, _ := getBody(t, ts.URL, "/v1/topology/"+sum.Key+"/export?format=bogus"); code != http.StatusBadRequest {
		t.Errorf("bogus format: HTTP %d, want 400", code)
	}
	if code, _ := getBody(t, ts.URL, "/v1/topology/ffffffffffffffff/export"); code != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", code)
	}
}

func TestPathEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	sum := buildTopology(t, ts.URL, Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1})

	code, body := getBody(t, ts.URL, fmt.Sprintf("/v1/path?key=%s&src=0&dst=15&seed=7", sum.Key))
	if code != http.StatusOK {
		t.Fatalf("path: HTTP %d body %s", code, body)
	}
	var p PathResponse
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if !p.Routable || p.MinTurn == nil || *p.MinTurn < 1 {
		t.Fatalf("path response not routable: %+v", p)
	}
	if len(p.Path) != p.Hops+1 {
		t.Errorf("hops = %d but path has %d switches", p.Hops, len(p.Path))
	}
	if p.Hops != 2**p.MinTurn {
		t.Errorf("hops = %d, want 2*min_turn = %d", p.Hops, 2**p.MinTurn)
	}
	if p.Path[0] != 0 || p.Path[len(p.Path)-1] != 15 {
		t.Errorf("path endpoints %d..%d, want 0..15", p.Path[0], p.Path[len(p.Path)-1])
	}
	// Identical query → identical bytes.
	_, body2 := getBody(t, ts.URL, fmt.Sprintf("/v1/path?key=%s&src=0&dst=15&seed=7", sum.Key))
	if !bytes.Equal(body, body2) {
		t.Error("repeated path query returned different bytes")
	}
	// Self-path: zero hops.
	code, body = getBody(t, ts.URL, fmt.Sprintf("/v1/path?key=%s&src=3&dst=3", sum.Key))
	if code != http.StatusOK {
		t.Fatalf("self path: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.Hops != 0 || len(p.Path) != 1 {
		t.Errorf("self path hops=%d len=%d, want 0 hops", p.Hops, len(p.Path))
	}

	for _, q := range []string{
		"/v1/path?key=" + sum.Key + "&src=0&dst=99",
		"/v1/path?key=" + sum.Key + "&src=-1&dst=0",
		"/v1/path?key=" + sum.Key + "&dst=0",
		"/v1/path?key=" + sum.Key + "&src=x&dst=0",
		"/v1/path?key=" + sum.Key + "&src=0&dst=0&seed=-2",
	} {
		if code, _ := getBody(t, ts.URL, q); code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", q, code)
		}
	}
	if code, _ := getBody(t, ts.URL, "/v1/path?key=none&src=0&dst=1"); code != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", code)
	}
}

func TestPathEndpointRRN(t *testing.T) {
	_, ts := newTestServer(t)
	sum := buildTopology(t, ts.URL, Spec{Kind: "rrn", N: 32, Degree: 4, Terms: 2, Seed: 1})
	code, body := getBody(t, ts.URL, fmt.Sprintf("/v1/path?key=%s&src=0&dst=31", sum.Key))
	if code != http.StatusOK {
		t.Fatalf("rrn path: HTTP %d body %s", code, body)
	}
	var p PathResponse
	if err := json.Unmarshal(body, &p); err != nil {
		t.Fatal(err)
	}
	if p.MinTurn != nil {
		t.Error("rrn path response carries min_turn")
	}
	if !p.Routable || len(p.Path) != p.Hops+1 {
		t.Errorf("rrn path malformed: %+v", p)
	}
}

func TestExpandEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	sp := Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1}
	sum := buildTopology(t, ts.URL, sp)

	var exp ExpandResponse
	if code := postJSON(t, ts.URL, "/v1/expand", ExpandRequest{Key: sum.Key}, &exp); code != http.StatusOK {
		t.Fatalf("expand: HTTP %d", code)
	}
	if exp.Increments != 1 {
		t.Errorf("increments defaulted to %d, want 1", exp.Increments)
	}
	if exp.LeavesAfter != 18 {
		t.Errorf("leaves_after = %d, want 18", exp.LeavesAfter)
	}
	if exp.TerminalsAfter-exp.TerminalsBefore != sp.Radix {
		t.Errorf("terminal growth = %d, want R = %d", exp.TerminalsAfter-exp.TerminalsBefore, sp.Radix)
	}
	if exp.MaxLeaves <= sp.Leaves {
		t.Errorf("max_leaves = %d, want > %d for this roomy config", exp.MaxLeaves, sp.Leaves)
	}
	wantInc := (exp.MaxLeaves - sp.Leaves) / 2
	if exp.IncrementsToThreshold != wantInc {
		t.Errorf("increments_to_threshold = %d, want %d", exp.IncrementsToThreshold, wantInc)
	}
	if exp.AtThreshold || exp.PastThreshold {
		t.Error("threshold flags set well below the threshold")
	}
	if exp.XAfter >= exp.XBefore || exp.SuccessAfter >= exp.SuccessBefore {
		t.Error("expansion should shrink the Theorem 4.2 margin")
	}
	if exp.RewiredLinks != (sp.Levels-1)*sp.Radix {
		t.Errorf("rewired_links = %d, want (l-1)*R = %d", exp.RewiredLinks, (sp.Levels-1)*sp.Radix)
	}
	// Same request, same response bytes (purity).
	var exp2 ExpandResponse
	postJSON(t, ts.URL, "/v1/expand", ExpandRequest{Key: sum.Key}, &exp2)
	a, _ := json.Marshal(exp)
	b, _ := json.Marshal(exp2)
	if !bytes.Equal(a, b) {
		t.Error("repeated expand request returned a different plan")
	}

	cft := buildTopology(t, ts.URL, Spec{Kind: "cft", Radix: 8, Levels: 3})
	if code := postJSON(t, ts.URL, "/v1/expand", ExpandRequest{Key: cft.Key}, nil); code != http.StatusBadRequest {
		t.Errorf("expand cft: HTTP %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, "/v1/expand", ExpandRequest{Key: sum.Key, Increments: -1}, nil); code != http.StatusBadRequest {
		t.Errorf("negative increments: HTTP %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, "/v1/expand", ExpandRequest{Key: "none"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", code)
	}
}

func TestFaultsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	sum := buildTopology(t, ts.URL, Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1})

	code, body := getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=3&seed=5", sum.Key))
	if code != http.StatusOK {
		t.Fatalf("faults: HTTP %d body %s", code, body)
	}
	var f FaultsResponse
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.LinksRemoved != 3 || f.Wires != sum.Wires {
		t.Errorf("faults removed %d of %d wires, want 3 of %d", f.LinksRemoved, f.Wires, sum.Wires)
	}
	if f.Routable != (f.UnroutablePairs == 0) {
		t.Errorf("routable=%v inconsistent with unroutable_pairs=%d", f.Routable, f.UnroutablePairs)
	}
	// Zero faults leave the build intact.
	_, body = getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=0", sum.Key))
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if !f.Connected || !f.Routable || f.UnroutablePairs != 0 {
		t.Errorf("zero-fault response reports damage: %+v", f)
	}
	// Removing every link disconnects everything; count is clamped.
	_, body = getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=%d", sum.Key, sum.Wires+100))
	if err := json.Unmarshal(body, &f); err != nil {
		t.Fatal(err)
	}
	if f.LinksRemoved != sum.Wires || f.Connected || f.Routable {
		t.Errorf("total destruction response: %+v", f)
	}
	// Identical query → identical bytes (seeded stream, no server state).
	_, b1 := getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=7&seed=9", sum.Key))
	_, b2 := getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=7&seed=9", sum.Key))
	if !bytes.Equal(b1, b2) {
		t.Error("repeated fault query returned different bytes")
	}

	if code, _ := getBody(t, ts.URL, "/v1/faults?key="+sum.Key+"&links=-1"); code != http.StatusBadRequest {
		t.Errorf("negative links: HTTP %d, want 400", code)
	}
	if code, _ := getBody(t, ts.URL, "/v1/faults?key=none&links=1"); code != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", code)
	}
}

func TestMetricsReflectTraffic(t *testing.T) {
	srv, ts := newTestServer(t)
	sp := Spec{Kind: "cft", Radix: 4, Levels: 2}
	buildTopology(t, ts.URL, sp)
	buildTopology(t, ts.URL, sp)
	getBody(t, ts.URL, "/v1/path?key=bogus&src=0&dst=1") // 404 → http_errors

	reg := srv.reg
	for name, want := range map[string]int64{
		metricCacheHits:   1,
		metricCacheMisses: 1,
		metricBuilds:      1,
		metricHTTPErrors:  1,
	} {
		if got := counterValue(reg, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if counterValue(reg, metricBuildNS) <= 0 {
		t.Error("build time counter never advanced")
	}
}

func TestThroughputEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	sum := buildTopology(t, ts.URL, Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1})

	var resp ThroughputResponse
	req := ThroughputRequest{Key: sum.Key, Matrix: "hotspot", Load: 0.8, Seed: 9}
	if code := postJSON(t, ts.URL, "/v1/throughput", req, &resp); code != http.StatusOK {
		t.Fatalf("POST /v1/throughput: HTTP %d", code)
	}
	if resp.Key != sum.Key || resp.Matrix != "hotspot" || resp.Load != 0.8 || resp.Seed != 9 {
		t.Errorf("request echo wrong: %+v", resp)
	}
	if resp.Flows <= 0 || resp.Unroutable != 0 {
		t.Errorf("routable build: flows=%d unroutable=%d", resp.Flows, resp.Unroutable)
	}
	if resp.Accepted <= 0 || resp.Accepted > 0.8+1e-9 {
		t.Errorf("accepted %.6f outside (0, load]", resp.Accepted)
	}
	if resp.MinRate > resp.MeanRate || resp.MeanRate > resp.MaxRate {
		t.Errorf("rate summary not ordered: %+v", resp)
	}
	if resp.Jain <= 0 || resp.Jain > 1+1e-9 {
		t.Errorf("jain %.6f outside (0, 1]", resp.Jain)
	}

	// Identical requests are byte-identically deterministic.
	var again ThroughputResponse
	postJSON(t, ts.URL, "/v1/throughput", req, &again)
	if resp != again {
		t.Errorf("repeat request differs: %+v vs %+v", resp, again)
	}

	// Defaults: uniform matrix at full load, seed 1.
	var def ThroughputResponse
	if code := postJSON(t, ts.URL, "/v1/throughput", ThroughputRequest{Key: sum.Key}, &def); code != http.StatusOK {
		t.Fatalf("defaulted POST /v1/throughput: HTTP %d", code)
	}
	if def.Matrix != "uniform" || def.Load != 1 || def.Seed != 1 {
		t.Errorf("defaults not applied: %+v", def)
	}

	// RRN builds solve too (table built per request).
	rrn := buildTopology(t, ts.URL, Spec{Kind: "rrn", N: 32, Degree: 4, Terms: 2, Seed: 1})
	var rres ThroughputResponse
	if code := postJSON(t, ts.URL, "/v1/throughput", ThroughputRequest{Key: rrn.Key}, &rres); code != http.StatusOK {
		t.Fatalf("rrn POST /v1/throughput: HTTP %d", code)
	}
	if rres.Flows <= 0 || rres.Accepted <= 0 {
		t.Errorf("rrn throughput: %+v", rres)
	}

	// Errors: unknown key, unknown matrix, negative load.
	if code := postJSON(t, ts.URL, "/v1/throughput", ThroughputRequest{Key: "none"}, nil); code != http.StatusNotFound {
		t.Errorf("unknown key: HTTP %d, want 404", code)
	}
	if code := postJSON(t, ts.URL, "/v1/throughput", ThroughputRequest{Key: sum.Key, Matrix: "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown matrix: HTTP %d, want 400", code)
	}
	if code := postJSON(t, ts.URL, "/v1/throughput", ThroughputRequest{Key: sum.Key, Load: -1}, nil); code != http.StatusBadRequest {
		t.Errorf("negative load: HTTP %d, want 400", code)
	}
}

// TestOversizedBodyRejected checks every POST endpoint answers 413 to a
// body over maxBodyBytes, and that the cap still admits a full /v1/paths
// batch: 8,192 pairs of 7-digit leaf indices, indented, reach the handler
// and fail its range check (400), not the size cap.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestServer(t)
	sum := buildTopology(t, ts.URL, Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1})
	huge := `{"key":"` + strings.Repeat("k", maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/topology", "/v1/paths", "/v1/expand", "/v1/throughput"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		var e apiError
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s: decode error body: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "exceeds") {
			t.Errorf("POST %s with a %d-byte body: HTTP %d %q, want 413", path, len(huge), resp.StatusCode, e.Error)
		}
	}

	req := PathsRequest{Key: sum.Key, Pairs: make([][2]int, maxPathsPerRequest)}
	for i := range req.Pairs {
		req.Pairs[i] = [2]int{2097151, 2097151}
	}
	payload, err := json.MarshalIndent(req, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) >= maxBodyBytes {
		t.Fatalf("full indented batch is %d bytes, over the %d-byte cap", len(payload), maxBodyBytes)
	}
	resp, err := http.Post(ts.URL+"/v1/paths", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("full %d-byte batch: HTTP %d, want 400 from the leaf range check", len(payload), resp.StatusCode)
	}
}

// TestUnknownFieldRejected checks a POST body naming a field the request
// type does not declare is a 400, not silently ignored.
func TestUnknownFieldRejected(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"kind":"cft","radix":4,"levels":2,"leafs":8}`
	resp, err := http.Post(ts.URL+"/v1/topology", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e apiError
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode error body: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "leafs"`) {
		t.Errorf("POST /v1/topology %s: HTTP %d %q, want 400 naming the field", body, resp.StatusCode, e.Error)
	}
	if got := cacheLen(srv.cache); got != 0 {
		t.Errorf("rejected request left %d cache entries", got)
	}
}

// TestHandlerPanicIsolated drives a panicking handler through route: the
// client gets a 500 apiError, the panic is counted, and the server keeps
// answering.
func TestHandlerPanicIsolated(t *testing.T) {
	srv, ts := newTestServer(t)
	srv.route("GET /panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	for i := 1; i <= 2; i++ {
		code, body := getBody(t, ts.URL, "/panic")
		if want := `{"error":"internal error: boom"}` + "\n"; code != http.StatusInternalServerError || string(body) != want {
			t.Errorf("GET /panic #%d: HTTP %d %q, want 500 %q", i, code, body, want)
		}
		reg := srv.reg
		if got := counterValue(reg, metricPanics); got != int64(i) {
			t.Errorf("after %d panics %s = %d", i, metricPanics, got)
		}
		if got := counterValue(reg, metricHTTPErrors); got != int64(i) {
			t.Errorf("after %d panics %s = %d", i, metricHTTPErrors, got)
		}
	}
	if code, _ := getBody(t, ts.URL, "/healthz"); code != http.StatusOK {
		t.Errorf("healthz after panics: HTTP %d", code)
	}
}

// postRaw sends body to path and returns status and raw response body.
func postRaw(t *testing.T, base, path string, v any) (int, []byte) {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestPathsBatchMatchesPath checks, on an rfc and an rrn build, that each
// POST /v1/paths element is byte-identical to the per-pair fields of the
// GET /v1/path answer at the same seed, and pins the batch's 400 bodies:
// an empty batch, one over maxPathsPerRequest and a pair out of range.
func TestPathsBatchMatchesPath(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		spec     Spec
		n        int
		rangeErr string
	}{
		{Spec{Kind: "rfc", Radix: 8, Levels: 3, Leaves: 16, Seed: 1}, 16,
			`{"error":"pair (-1,0): src/dst must be leaf-switch indices in [0, 16)"}`},
		{Spec{Kind: "rrn", N: 32, Degree: 4, Terms: 2, Seed: 1}, 32,
			`{"error":"pair (-1,0): src/dst must be switch ids in [0, 32)"}`},
	} {
		t.Run(tc.spec.Kind, func(t *testing.T) {
			sum := buildTopology(t, ts.URL, tc.spec)
			const seed = 7
			var pairs [][2]int
			for src := 0; src < tc.n; src += 3 {
				for dst := 0; dst < tc.n; dst += 5 {
					pairs = append(pairs, [2]int{src, dst})
				}
			}
			code, body := postRaw(t, ts.URL, "/v1/paths", PathsRequest{Key: sum.Key, Pairs: pairs, Seed: seed})
			if code != http.StatusOK {
				t.Fatalf("POST /v1/paths: HTTP %d %s", code, body)
			}
			var batch struct {
				Key   string            `json:"key"`
				Seed  uint64            `json:"seed"`
				Count int               `json:"count"`
				Paths []json.RawMessage `json:"paths"`
			}
			if err := json.Unmarshal(body, &batch); err != nil {
				t.Fatal(err)
			}
			if batch.Key != sum.Key || batch.Seed != seed || batch.Count != len(pairs) || len(batch.Paths) != len(pairs) {
				t.Fatalf("batch header key=%s seed=%d count=%d paths=%d, want %s %d %d",
					batch.Key, batch.Seed, batch.Count, len(batch.Paths), sum.Key, seed, len(pairs))
			}
			multiHop := 0
			for i, pair := range pairs {
				code, single := getBody(t, ts.URL, fmt.Sprintf("/v1/path?key=%s&src=%d&dst=%d&seed=%d", sum.Key, pair[0], pair[1], seed))
				if code != http.StatusOK {
					t.Fatalf("GET /v1/path %v: HTTP %d %s", pair, code, single)
				}
				var p PathResponse
				if err := json.Unmarshal(single, &p); err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(PathResult{Src: p.Src, Dst: p.Dst, MinTurn: p.MinTurn, Routable: p.Routable, Hops: p.Hops, Path: p.Path})
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(batch.Paths[i], want) {
					t.Errorf("pair %v: batch element %s, single path %s", pair, batch.Paths[i], want)
				}
				if p.Hops > 1 {
					multiHop++
				}
			}
			if multiHop == 0 {
				t.Error("no pair in the batch has a multi-hop path")
			}

			over := make([][2]int, maxPathsPerRequest+1)
			for _, e := range []struct {
				name  string
				pairs [][2]int
				want  string
			}{
				{"empty", nil, `{"error":"empty pairs batch"}`},
				{"over limit", over, `{"error":"batch of 8193 pairs exceeds the 8192-pair limit"}`},
				{"out of range", [][2]int{{0, 1}, {-1, 0}}, tc.rangeErr},
			} {
				code, body := postRaw(t, ts.URL, "/v1/paths", PathsRequest{Key: sum.Key, Pairs: e.pairs, Seed: seed})
				if code != http.StatusBadRequest || string(body) != e.want+"\n" {
					t.Errorf("%s batch: HTTP %d %q, want 400 %q", e.name, code, body, e.want+"\n")
				}
			}
		})
	}
}

// TestSeedZeroMeansDefault checks that an explicit seed=0 on the GET
// endpoints reads as the default seed 1, as the POST bodies read it: every
// GET /v1/path?seed=0 answer matches its POST /v1/paths {"seed":0} element,
// and /v1/faults?seed=0 answers exactly like seed=1.
func TestSeedZeroMeansDefault(t *testing.T) {
	_, ts := newTestServer(t)
	sum := buildTopology(t, ts.URL, Spec{Kind: "rfc", Radix: 16, Levels: 3, Leaves: 48, Seed: 1})
	var pairs [][2]int
	for src := 0; src < 48; src++ {
		pairs = append(pairs, [2]int{src, 47})
	}
	code, body := postRaw(t, ts.URL, "/v1/paths", PathsRequest{Key: sum.Key, Pairs: pairs, Seed: 0})
	if code != http.StatusOK {
		t.Fatalf("POST /v1/paths: HTTP %d %s", code, body)
	}
	var batch struct {
		Paths []json.RawMessage `json:"paths"`
	}
	if err := json.Unmarshal(body, &batch); err != nil {
		t.Fatal(err)
	}
	for i, pair := range pairs {
		_, single := getBody(t, ts.URL, fmt.Sprintf("/v1/path?key=%s&src=%d&dst=%d&seed=0", sum.Key, pair[0], pair[1]))
		var p PathResponse
		if err := json.Unmarshal(single, &p); err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(PathResult{Src: p.Src, Dst: p.Dst, MinTurn: p.MinTurn, Routable: p.Routable, Hops: p.Hops, Path: p.Path})
		if err != nil {
			t.Fatal(err)
		}
		if p.Seed != 1 || !bytes.Equal(batch.Paths[i], want) {
			t.Errorf("pair %v: GET seed=0 answered seed %d %s, batch element %s", pair, p.Seed, want, batch.Paths[i])
		}
	}
	_, zero := getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=5&seed=0", sum.Key))
	_, one := getBody(t, ts.URL, fmt.Sprintf("/v1/faults?key=%s&links=5&seed=1", sum.Key))
	if !bytes.Equal(zero, one) {
		t.Errorf("/v1/faults seed=0 %s, seed=1 %s", zero, one)
	}
}
