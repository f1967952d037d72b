package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"rfclos/internal/core"
	"rfclos/internal/flow"
	"rfclos/internal/obs"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
	"rfclos/internal/traffic"
)

// Options configures a Server.
type Options struct {
	// CacheBytes is the byte budget over the cached builds' estimated
	// memory (adjacency + routing state + turn index). 0 means the default
	// (DefaultCacheBytes, 8 GiB); negative means unlimited.
	CacheBytes int64
}

// Server is the rfcd request handler: the topology cache plus the HTTP/JSON
// API over it. Create with New, mount via Handler.
type Server struct {
	cache *Cache
	reg   *obs.Registry
	mux   *http.ServeMux
}

// New returns a ready-to-serve Server.
func New(opts Options) *Server {
	reg := obs.NewRegistry()
	s := &Server{
		cache: NewCache(opts.CacheBytes, nil, reg),
		reg:   reg,
		mux:   http.NewServeMux(),
	}
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /metrics", s.handleMetrics)
	s.route("POST /v1/topology", s.handleTopology)
	s.route("GET /v1/topology/{key}/export", s.handleExport)
	s.route("GET /v1/path", s.handlePath)
	s.route("POST /v1/paths", s.handlePaths)
	s.route("POST /v1/expand", s.handleExpand)
	s.route("GET /v1/faults", s.handleFaults)
	s.route("POST /v1/throughput", s.handleThroughput)
	return s
}

// Handler returns the HTTP handler serving the full API.
func (s *Server) Handler() http.Handler { return s.mux }

// Cache exposes the topology cache, so callers can read a cached build by
// its key.
func (s *Server) Cache() *Cache { return s.cache }

// route registers a handler with a per-endpoint request counter. The
// metric label is the pattern's path with wildcards intact, so cardinality
// stays fixed. A handler panic is counted in rfcd_panics_total and answered
// with a 500 apiError instead of dropping the connection.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	ctr := s.reg.Counter(requestMetric(pattern))
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		ctr.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.reg.Add(metricPanics, 1)
				s.writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", p))
			}
		}()
		h(w, r)
	})
}

// apiError is the uniform JSON error body.
type apiError struct {
	Error string `json:"error"`
}

func (s *Server) writeError(w http.ResponseWriter, code int, msg string) {
	s.reg.Add(metricHTTPErrors, 1)
	writeJSON(w, code, apiError{Error: msg})
}

// maxBodyBytes caps every POST body. The largest legitimate one is a full
// /v1/paths batch: 8,192 pairs of 7-digit leaf indices take about 150 KB
// compact and under 400 KB indented.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it writes the error response — 413 for an oversized body, 400
// for malformed JSON or a field v does not declare — and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		return true
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		return false
	}
	s.writeError(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(body, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.reg.WriteTo(w)
}

// TopologySummary is the POST /v1/topology response: the content address
// plus the structural stats of the build. Apart from Cached (server cache
// state) every field is a pure function of the spec.
type TopologySummary struct {
	Key       string `json:"key"`
	Canonical string `json:"canonical"`
	Kind      string `json:"kind"`
	Seed      uint64 `json:"seed,omitempty"`
	Levels    int    `json:"levels,omitempty"`
	Radix     int    `json:"radix,omitempty"`
	Switches  int    `json:"switches"`
	Terminals int    `json:"terminals"`
	Wires     int    `json:"wires"`
	Routable  bool   `json:"routable"`
	Attempts  int    `json:"attempts,omitempty"`
	// IndexLeaves/IndexBytes/IndexTier describe the precomputed up/down
	// route index of folded Clos kinds: tier "dense" is the O(1)-lookup N1²
	// table, "succinct" the exception-coded representation for large N1
	// (absent above maxSuccinctLeaves, where queries use cover sets).
	IndexLeaves int    `json:"index_leaves,omitempty"`
	IndexBytes  int    `json:"index_bytes,omitempty"`
	IndexTier   string `json:"index_tier,omitempty"`
	// CoverBytes/CoverRepr describe the router's compressed cover state
	// (folded Clos kinds): CoverBytes is the memory the cache budget is
	// charged for the cover containers, CoverRepr the per-container
	// histogram (e.g. "run:520 sparse:64 full:8") — see routing.LeafSet.
	// Both count per cover slot, so slots sharing one container are each
	// charged in full and CoverBytes bounds the live cover bytes from
	// above.
	CoverBytes int    `json:"cover_bytes,omitempty"`
	CoverRepr  string `json:"cover_repr,omitempty"`
	// Theorem 4.2 placement, rfc only.
	XParam         *float64 `json:"x_param,omitempty"`
	ThresholdRadix *float64 `json:"threshold_radix,omitempty"`
	Cached         bool     `json:"cached"`
}

func (s *Server) summarize(t *Topology, cached bool) TopologySummary {
	sum := TopologySummary{
		Key:       t.Key,
		Canonical: t.Canon,
		Kind:      t.Spec.Kind,
		Seed:      t.Spec.Seed,
		Switches:  t.Switches(),
		Terminals: t.Terminals(),
		Wires:     t.Wires(),
		Routable:  t.Routable,
		Attempts:  t.Attempts,
		Cached:    cached,
	}
	if t.Clos != nil {
		sum.Levels = t.Clos.Levels()
		sum.Radix = t.Clos.Radix
	}
	if t.Index != nil {
		sum.IndexLeaves = t.Index.Leaves()
		sum.IndexBytes = t.Index.SizeBytes()
		sum.IndexTier = t.Index.Tier()
	}
	if t.Router != nil {
		sum.CoverBytes = t.Router.CoverBytes()
		sum.CoverRepr = t.Router.CoverRepr()
	}
	if t.Spec.Kind == "rfc" {
		x := core.XParam(t.Spec.Radix, t.Spec.Leaves, t.Spec.Levels)
		tr := core.ThresholdRadix(t.Spec.Leaves, t.Spec.Levels)
		sum.XParam = &x
		sum.ThresholdRadix = &tr
	}
	return sum
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	var sp Spec
	if !s.decodeBody(w, r, &sp) {
		return
	}
	t, cached, err := s.cache.Get(sp)
	if err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, core.ErrNotRoutable) {
			code = http.StatusUnprocessableEntity
		}
		s.writeError(w, code, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, s.summarize(t, cached))
}

// lookup resolves a topology key from the cache, writing the 404 itself
// when absent.
func (s *Server) lookup(w http.ResponseWriter, key string) (*Topology, bool) {
	t, ok := s.cache.Lookup(key)
	if !ok {
		s.writeError(w, http.StatusNotFound,
			fmt.Sprintf("unknown topology key %q: build it first via POST /v1/topology", key))
		return nil, false
	}
	return t, true
}

// exportFlushBytes is how much export output accumulates before the
// response is flushed to the client. Flushing forces chunked transfer
// encoding and bounds server-side buffering, so a multi-GB export streams
// instead of materialising: the encoders write straight from EdgeSeq and
// this handler pushes the bytes out every quarter megabyte.
const exportFlushBytes = 256 << 10

// flushingWriter counts bytes written and flushes the underlying
// ResponseWriter every exportFlushBytes.
type flushingWriter struct {
	w       http.ResponseWriter
	f       http.Flusher // nil when the writer cannot flush
	pending int
}

func (fw *flushingWriter) Write(p []byte) (int, error) {
	n, err := fw.w.Write(p)
	fw.pending += n
	if fw.f != nil && fw.pending >= exportFlushBytes {
		fw.f.Flush()
		fw.pending = 0
	}
	return n, err
}

func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r.PathValue("key"))
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	ct := "text/plain; charset=utf-8"
	if format == "json" {
		ct = "application/json"
	}
	w.Header().Set("Content-Type", ct)
	fw := &flushingWriter{w: w}
	if f, ok := w.(http.Flusher); ok {
		fw.f = f
	}
	var err error
	if t.RRN != nil {
		err = topology.ExportRRN(t.RRN, format, fw)
	} else {
		err = topology.Export(t.Clos, format, fw)
	}
	if err != nil {
		// Headers may already be out for a streaming failure; for an unknown
		// format nothing has been written yet, so the error reaches the
		// client cleanly.
		s.writeError(w, http.StatusBadRequest, err.Error())
	}
}

// PathResponse is the GET /v1/path response: one shortest up/down path
// (folded Clos kinds, leaf-switch indices) or one BFS shortest path (rrn,
// switch ids). A pure function of (key's params, src, dst, seed).
type PathResponse struct {
	Key string `json:"key"`
	Src int    `json:"src"`
	Dst int    `json:"dst"`
	// MinTurn is the up-hop count of the shortest up/down path (folded Clos
	// kinds; absent for rrn). -1 when src and dst have no up/down path.
	MinTurn *int `json:"min_turn,omitempty"`
	// Routable reports whether a path exists for this pair.
	Routable bool `json:"routable"`
	// Hops is len(Path)-1, the switch-to-switch hop count.
	Hops int `json:"hops"`
	// Path is the switch-id sequence from src's switch to dst's switch.
	Path []int32 `json:"path,omitempty"`
	Seed uint64  `json:"seed"`
}

// queryInt parses a required integer query parameter.
func queryInt(r *http.Request, name string) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, fmt.Errorf("missing query parameter %q", name)
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("query parameter %q: %v", name, err)
	}
	return n, nil
}

// querySeed parses an optional uint64 seed query parameter. An absent or
// zero seed is the default 1, as in the POST bodies.
func querySeed(r *http.Request) (uint64, error) {
	v := r.URL.Query().Get("seed")
	if v == "" {
		return 1, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("query parameter \"seed\": %v", err)
	}
	return max(n, 1), nil
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	t, ok := s.lookup(w, key)
	if !ok {
		return
	}
	src, err := queryInt(r, "src")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	dst, err := queryInt(r, "dst")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	seed, err := querySeed(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	res, err := pathResult(t, src, dst, seed)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, PathResponse{
		Key: t.Key, Src: src, Dst: dst, MinTurn: res.MinTurn,
		Routable: res.Routable, Hops: res.Hops, Path: res.Path, Seed: seed,
	})
}

// pathResult answers one src/dst pair of t at seed: a BFS shortest path
// between switch ids on an rrn build, a shortest up/down path between leaf
// switches otherwise. A pair out of range is an error naming the range.
func pathResult(t *Topology, src, dst int, seed uint64) (PathResult, error) {
	res := PathResult{Src: src, Dst: dst}
	if t.RRN != nil {
		if n := t.RRN.N(); src < 0 || src >= n || dst < 0 || dst >= n {
			return res, fmt.Errorf("src/dst must be switch ids in [0, %d)", n)
		}
		if path := t.RRN.G.ShortestPath(src, dst); path != nil {
			res.Routable, res.Path, res.Hops = true, path, len(path)-1
		}
		return res, nil
	}
	if n1 := t.Clos.LevelSize(1); src < 0 || src >= n1 || dst < 0 || dst >= n1 {
		return res, fmt.Errorf("src/dst must be leaf-switch indices in [0, %d)", n1)
	}
	turn, path := t.Path(src, dst, seed)
	res.MinTurn, res.Routable = &turn, turn >= 0
	if turn >= 0 {
		res.Path, res.Hops = path, len(path)-1
	}
	return res, nil
}

// maxPathsPerRequest bounds one POST /v1/paths batch so a single request
// cannot hold a connection for an unbounded amount of work.
const maxPathsPerRequest = 8192

// PathsRequest is the POST /v1/paths body: a batch of src/dst pairs
// resolved against one cached topology in a single request, amortising the
// topology lookup and HTTP round trip across the batch (the first step of
// the high-QPS serving item).
type PathsRequest struct {
	Key   string   `json:"key"`
	Pairs [][2]int `json:"pairs"`
	// Seed feeds each pair's path randomisation exactly as GET /v1/path's
	// seed parameter does (default 1): a batch response is element-wise
	// byte-identical to the corresponding single-path responses.
	Seed uint64 `json:"seed,omitempty"`
}

// PathResult is one pair's outcome within a PathsResponse, mirroring the
// per-pair fields of PathResponse.
type PathResult struct {
	Src      int     `json:"src"`
	Dst      int     `json:"dst"`
	MinTurn  *int    `json:"min_turn,omitempty"`
	Routable bool    `json:"routable"`
	Hops     int     `json:"hops"`
	Path     []int32 `json:"path,omitempty"`
}

// PathsResponse is the POST /v1/paths response. Like PathResponse it is a
// pure function of (key's params, pairs, seed).
type PathsResponse struct {
	Key   string       `json:"key"`
	Seed  uint64       `json:"seed"`
	Count int          `json:"count"`
	Paths []PathResult `json:"paths"`
}

func (s *Server) handlePaths(w http.ResponseWriter, r *http.Request) {
	var req PathsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if len(req.Pairs) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty pairs batch")
		return
	}
	if len(req.Pairs) > maxPathsPerRequest {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch of %d pairs exceeds the %d-pair limit", len(req.Pairs), maxPathsPerRequest))
		return
	}
	t, ok := s.lookup(w, req.Key)
	if !ok {
		return
	}
	resp := PathsResponse{
		Key:   t.Key,
		Seed:  req.Seed,
		Count: len(req.Pairs),
		Paths: make([]PathResult, 0, len(req.Pairs)),
	}
	for _, pair := range req.Pairs {
		res, err := pathResult(t, pair[0], pair[1], req.Seed)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("pair (%d,%d): %v", pair[0], pair[1], err))
			return
		}
		resp.Paths = append(resp.Paths, res)
	}
	writeJSON(w, http.StatusOK, resp)
}

// ExpandRequest is the POST /v1/expand body: expand the cached RFC named
// by Key by Increments minimal strong expansions (§5; R new terminals
// each).
type ExpandRequest struct {
	Key        string `json:"key"`
	Increments int    `json:"increments,omitempty"` // default 1
}

// ExpandResponse reports one planned expansion step and its distance to
// the Theorem 4.2 threshold. A pure function of (key's params, seed,
// increments).
type ExpandResponse struct {
	Key        string `json:"key"`
	Increments int    `json:"increments"`

	LeavesBefore    int `json:"leaves_before"`
	LeavesAfter     int `json:"leaves_after"`
	TerminalsBefore int `json:"terminals_before"`
	TerminalsAfter  int `json:"terminals_after"`

	// MaxLeaves is the Theorem 4.2 ceiling for this radix and level count;
	// IncrementsToThreshold is how many more increments the pre-expansion
	// network could take before reaching it (0 when already at or past).
	MaxLeaves             int  `json:"max_leaves"`
	IncrementsToThreshold int  `json:"increments_to_threshold"`
	AtThreshold           bool `json:"at_threshold"`
	PastThreshold         bool `json:"past_threshold"`

	// XBefore/XAfter are the Theorem 4.2 offsets, SuccessBefore/After the
	// implied exp(-exp(-x)) routability probabilities.
	XBefore       float64 `json:"x_before"`
	XAfter        float64 `json:"x_after"`
	SuccessBefore float64 `json:"success_before"`
	SuccessAfter  float64 `json:"success_after"`

	// RewiredLinks counts existing links the performed expansion re-plugged
	// ((l-1)·R per increment); Routable reports whether the expanded network
	// kept the up/down common-ancestor property.
	RewiredLinks int  `json:"rewired_links"`
	Routable     bool `json:"routable"`
}

func (s *Server) handleExpand(w http.ResponseWriter, r *http.Request) {
	var req ExpandRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Increments == 0 {
		req.Increments = 1
	}
	if req.Increments < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("increments %d < 0", req.Increments))
		return
	}
	t, ok := s.lookup(w, req.Key)
	if !ok {
		return
	}
	if t.Spec.Kind != "rfc" {
		s.writeError(w, http.StatusBadRequest,
			fmt.Sprintf("expansion requires an rfc topology, key %q is %q", req.Key, t.Spec.Kind))
		return
	}
	sp := t.Spec
	before := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
	after := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves + 2*req.Increments}
	maxLeaves := core.MaxLeaves(sp.Radix, sp.Levels)
	resp := ExpandResponse{
		Key:             t.Key,
		Increments:      req.Increments,
		LeavesBefore:    before.Leaves,
		LeavesAfter:     after.Leaves,
		TerminalsBefore: before.Terminals(),
		TerminalsAfter:  after.Terminals(),
		MaxLeaves:       maxLeaves,
		AtThreshold:     after.Leaves == maxLeaves,
		PastThreshold:   after.Leaves > maxLeaves,
		XBefore:         core.XParam(sp.Radix, before.Leaves, sp.Levels),
		XAfter:          core.XParam(sp.Radix, after.Leaves, sp.Levels),
	}
	if before.Leaves < maxLeaves {
		resp.IncrementsToThreshold = (maxLeaves - before.Leaves) / 2
	}
	resp.SuccessBefore = core.SuccessProbability(resp.XBefore)
	resp.SuccessAfter = core.SuccessProbability(resp.XAfter)

	// Perform the expansion with a stream derived from (seed, increments):
	// the same request against the same topology always reports the same
	// rewiring. ExpandRoutable retries the splice like GenerateRoutable; if
	// every attempt loses routability (expected past the threshold), fall
	// back to a single unchecked expansion and report routable = false.
	stream := rng.At(sp.Seed, rng.StringCoord("rfcd/expand"), uint64(req.Increments))
	out, _, rewired, err := core.ExpandRoutable(t.Clos, req.Increments, 10, stream)
	if err == nil {
		resp.RewiredLinks = rewired
		resp.Routable = true
	} else if errors.Is(err, core.ErrNotRoutable) {
		fallback := rng.At(sp.Seed, rng.StringCoord("rfcd/expand-unchecked"), uint64(req.Increments))
		out, rewired, err = core.Expand(t.Clos, req.Increments, fallback)
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		resp.RewiredLinks = rewired
		resp.Routable = routing.New(out).Routable()
	} else {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// ThroughputRequest is the POST /v1/throughput body: solve one traffic
// matrix on the cached topology named by Key with the flow-level
// max-min-fair backend (internal/flow). Matrix names a canonical generator
// (uniform, random-pairing, fixed-random, shift, hotspot, incast,
// elephant-mice, storm; default uniform), Load scales its rates (default
// 1.0), and Seed drives matrix generation and path sampling (default 1).
type ThroughputRequest struct {
	Key    string  `json:"key"`
	Matrix string  `json:"matrix,omitempty"`
	Load   float64 `json:"load,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`
}

// ThroughputResponse is the POST /v1/throughput response: the solver's
// summary statistics. A pure function of (key's params, matrix, load, seed).
type ThroughputResponse struct {
	Key    string  `json:"key"`
	Matrix string  `json:"matrix"`
	Load   float64 `json:"load"`
	Seed   uint64  `json:"seed"`
	// Flows counts routed flows, Unroutable the flows dropped for lack of a
	// path (faulted builds).
	Flows      int `json:"flows"`
	Unroutable int `json:"unroutable"`
	// Accepted is delivered rate per terminal; MinRate/MeanRate/MaxRate and
	// Jain summarise the per-flow max-min-fair allocation.
	Accepted float64 `json:"accepted"`
	MinRate  float64 `json:"min_rate"`
	MeanRate float64 `json:"mean_rate"`
	MaxRate  float64 `json:"max_rate"`
	Jain     float64 `json:"jain"`
	Rounds   int     `json:"rounds"`
	SatLinks int     `json:"sat_links"`
}

func (s *Server) handleThroughput(w http.ResponseWriter, r *http.Request) {
	var req ThroughputRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Matrix == "" {
		req.Matrix = "uniform"
	}
	if req.Load == 0 {
		req.Load = 1
	}
	if req.Load < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("load %g < 0", req.Load))
		return
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	t, ok := s.lookup(w, req.Key)
	if !ok {
		return
	}
	// Folded Clos builds reuse the cached router and precomputed turn index;
	// RRNs pay a per-request hop table (no routing state is cached for them).
	var net flow.Network
	if t.RRN != nil {
		rn, err := flow.NewRRN(t.RRN, 0)
		if err != nil {
			s.writeError(w, http.StatusUnprocessableEntity, err.Error())
			return
		}
		net = rn
	} else {
		net = flow.NewClos(t.Clos, t.Router, t.Index)
	}
	stream := rng.At(req.Seed, rng.StringCoord("rfcd/throughput"))
	m, err := traffic.NewMatrix(req.Matrix, net.Terminals(), stream)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	m = traffic.ScaleMatrix(m, req.Load)
	res, err := flow.Solve(net, m, flow.Options{Seed: stream.Uint64()})
	if err != nil {
		s.writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ThroughputResponse{
		Key: t.Key, Matrix: req.Matrix, Load: req.Load, Seed: req.Seed,
		Flows: res.Flows, Unroutable: res.Unroutable,
		Accepted: res.Accepted, MinRate: res.MinRate, MeanRate: res.MeanRate,
		MaxRate: res.MaxRate, Jain: res.Jain, Rounds: res.Rounds, SatLinks: res.SatLinks,
	})
}

// FaultsResponse is the GET /v1/faults response: connectivity and up/down
// routability after dropping k random links from a seeded stream. A pure
// function of (key's params, links, seed).
type FaultsResponse struct {
	Key string `json:"key"`
	// LinksRemoved is the number of links actually dropped (the request's
	// count clamped to the wire count).
	LinksRemoved int    `json:"links_removed"`
	Wires        int    `json:"wires"`
	Seed         uint64 `json:"seed"`
	// Connected reports whether the switch graph stays in one component.
	Connected bool `json:"connected"`
	// Routable reports whether every leaf pair keeps an up/down path
	// (folded Clos kinds); for rrn it equals Connected.
	Routable bool `json:"routable"`
	// UnroutablePairs counts leaf pairs without an up/down path (folded
	// Clos kinds; 0 for rrn).
	UnroutablePairs int `json:"unroutable_pairs"`
}

func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	t, ok := s.lookup(w, r.URL.Query().Get("key"))
	if !ok {
		return
	}
	k, err := queryInt(r, "links")
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if k < 0 {
		s.writeError(w, http.StatusBadRequest, fmt.Sprintf("links %d < 0", k))
		return
	}
	seed, err := querySeed(r)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	stream := rng.At(seed, rng.StringCoord("rfcd/faults"))
	resp := FaultsResponse{Key: t.Key, Seed: seed, Wires: t.Wires()}
	if t.RRN != nil {
		g := t.RRN.G.Clone()
		edges := g.Edges()
		stream.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		if k > len(edges) {
			k = len(edges)
		}
		for _, e := range edges[:k] {
			g.RemoveEdge(int(e.U), int(e.V))
		}
		resp.LinksRemoved = k
		resp.Connected = g.IsConnected()
		resp.Routable = resp.Connected
		writeJSON(w, http.StatusOK, resp)
		return
	}
	faulty := t.Clos.Clone()
	links := faulty.Links()
	stream.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	if k > len(links) {
		k = len(links)
	}
	for _, l := range links[:k] {
		faulty.RemoveLink(l.A, l.B)
	}
	resp.LinksRemoved = k
	resp.Connected = faulty.SwitchGraph().IsConnected()
	ud := routing.New(faulty)
	resp.UnroutablePairs = ud.UnroutablePairs(0)
	resp.Routable = resp.UnroutablePairs == 0
	writeJSON(w, http.StatusOK, resp)
}
