// Package service is the serving layer over the deterministic topology
// core: a concurrent HTTP/JSON API (stdlib net/http only) answering
// topology, routing, expandability and fault queries about RFC, fat-tree
// and random-regular builds. Builds are memoised in a content-addressed
// LRU cache with singleflight deduplication, and every cached folded Clos
// carries a precomputed up/down route index, so cached path queries are
// O(path length).
//
// Every response body is a pure function of the request parameters and
// seeds (the sole exception is the "cached" flag, which reflects server
// cache state). The package is on rfclint's deterministic list (see
// internal/lint.DefaultConfig): it reads no clock itself, and build
// timings reach /metrics only through internal/obs.Registry.Time.
package service

import (
	"fmt"
	"strings"

	"rfclos/internal/core"
	"rfclos/internal/obs"
	"rfclos/internal/rng"
	"rfclos/internal/routing"
	"rfclos/internal/topology"
)

// Spec identifies one topology build: the kind plus its parameters and the
// generation seed. It is the request body of POST /v1/topology; unused
// parameter fields for a kind must be zero.
type Spec struct {
	// Kind is one of "rfc", "cft", "kary", "oft", "xgft", "rrn".
	Kind string `json:"kind"`

	Radix  int `json:"radix,omitempty"`  // rfc, cft; optional port budget for xgft
	Levels int `json:"levels,omitempty"` // rfc, cft, kary, oft
	Leaves int `json:"leaves,omitempty"` // rfc (0 = MaxLeaves for radix/levels)

	Q int `json:"q,omitempty"` // oft: projective plane order
	K int `json:"k,omitempty"` // kary: arity

	M []int `json:"m,omitempty"` // xgft: down-link counts per level
	W []int `json:"w,omitempty"` // xgft: up-link counts per level

	N      int `json:"n,omitempty"`      // rrn: switches
	Degree int `json:"degree,omitempty"` // rrn: network degree
	Terms  int `json:"terms,omitempty"`  // rrn: terminals per switch

	// Seed drives the random builders (rfc, rrn). Deterministic kinds
	// canonicalise it to 0, so seed variations of a CFT share a cache entry.
	Seed uint64 `json:"seed,omitempty"`
}

// maxSwitches bounds a single build so one request cannot exhaust server
// memory; the paper's largest scenario (200K terminals) is well within it.
const maxSwitches = 1 << 21

// DefaultDenseIndexBytes is the byte budget for the dense turn table:
// topologies whose N1² table fits in it get the O(1)-lookup dense tier
// (64 MiB = 8192 leaves); larger ones get the succinct tier.
const DefaultDenseIndexBytes = 64 << 20

// maxSuccinctLeaves bounds the leaf count for which even the succinct index
// is precomputed. Its build costs O(levels·runs + exceptions) per row,
// which is small for structured trees but grows with the covers' entropy:
// a large random fabric's covers hold O(N1) short runs, so its build is
// still O(levels·N1²) in the worst case. Every row also costs about 100
// bytes of bookkeeping whatever the topology. The bound covers
// the paper's 200K-terminal scenario C with headroom and fixes which
// builds report an index in their summaries. Beyond it, path queries fall
// back to the cover-set MinTurn, which is O(levels) per query with no
// precomputation.
const maxSuccinctLeaves = 1 << 19

// Normalize validates sp, fills kind-specific defaults and canonicalises
// fields that do not affect the build (the seed of deterministic kinds),
// returning the spec whose Canonical string content-addresses the build.
func (sp Spec) Normalize() (Spec, error) {
	sp.Kind = strings.ToLower(strings.TrimSpace(sp.Kind))
	switch sp.Kind {
	case "rfc":
		if sp.Seed == 0 {
			sp.Seed = 1
		}
		if sp.Leaves == 0 {
			sp.Leaves = core.MaxLeaves(sp.Radix, sp.Levels)
		}
		p := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
		if err := p.Validate(); err != nil {
			return sp, err
		}
		// Bound the factors first: their product can overflow int.
		if p.Levels > maxSwitches || p.Leaves > maxSwitches || p.Switches() > maxSwitches {
			return sp, fmt.Errorf("service: %v exceeds the %d-switch serving limit", p, maxSwitches)
		}
	case "cft":
		sp.Seed = 0
		if sp.Radix < 4 || sp.Radix%2 != 0 {
			return sp, fmt.Errorf("service: cft radix must be even and >= 4, got %d", sp.Radix)
		}
		if sp.Levels < 2 {
			return sp, fmt.Errorf("service: cft levels must be >= 2, got %d", sp.Levels)
		}
	case "kary":
		sp.Seed = 0
		if sp.K < 2 {
			return sp, fmt.Errorf("service: kary arity must be >= 2, got %d", sp.K)
		}
		if sp.Levels < 2 {
			return sp, fmt.Errorf("service: kary levels must be >= 2, got %d", sp.Levels)
		}
	case "oft":
		sp.Seed = 0
		if sp.Q < 2 {
			return sp, fmt.Errorf("service: oft order must be >= 2, got %d", sp.Q)
		}
		if sp.Levels < 2 {
			return sp, fmt.Errorf("service: oft levels must be >= 2, got %d", sp.Levels)
		}
	case "xgft":
		sp.Seed = 0
		if len(sp.M) < 2 || len(sp.M) != len(sp.W) {
			return sp, fmt.Errorf("service: xgft needs len(m) == len(w) >= 2, got %d and %d", len(sp.M), len(sp.W))
		}
	case "rrn":
		if sp.Seed == 0 {
			sp.Seed = 1
		}
		if sp.N < 2 || sp.N > maxSwitches {
			return sp, fmt.Errorf("service: rrn switches must be in [2, %d], got %d", maxSwitches, sp.N)
		}
		if sp.Degree < 1 || sp.Terms < 0 {
			return sp, fmt.Errorf("service: rrn degree %d / terms %d invalid", sp.Degree, sp.Terms)
		}
	case "":
		return sp, fmt.Errorf("service: missing topology kind")
	default:
		return sp, fmt.Errorf("service: unknown topology kind %q (want rfc, cft, kary, oft, xgft or rrn)", sp.Kind)
	}
	return sp, nil
}

// Canonical renders the normalized spec as the canonical parameter string
// the cache keys on. Two specs describing the same build (after Normalize)
// render identically.
func (sp Spec) Canonical() string {
	switch sp.Kind {
	case "rfc":
		return fmt.Sprintf("rfc(radix=%d,levels=%d,leaves=%d,seed=%d)", sp.Radix, sp.Levels, sp.Leaves, sp.Seed)
	case "cft":
		return fmt.Sprintf("cft(radix=%d,levels=%d)", sp.Radix, sp.Levels)
	case "kary":
		return fmt.Sprintf("kary(k=%d,levels=%d)", sp.K, sp.Levels)
	case "oft":
		return fmt.Sprintf("oft(q=%d,levels=%d)", sp.Q, sp.Levels)
	case "xgft":
		return fmt.Sprintf("xgft(m=%v,w=%v,radix=%d)", sp.M, sp.W, sp.Radix)
	case "rrn":
		return fmt.Sprintf("rrn(n=%d,degree=%d,terms=%d,seed=%d)", sp.N, sp.Degree, sp.Terms, sp.Seed)
	}
	return fmt.Sprintf("unknown(%q)", sp.Kind)
}

// Key returns the content address of the normalized spec: the 64-bit FNV-1a
// hash of the canonical string, in fixed-width hex. It names the build in
// URLs (GET /v1/topology/{key}/...).
func (sp Spec) Key() string {
	return fmt.Sprintf("%016x", rng.StringCoord(sp.Canonical()))
}

// Topology is one cached build: the network, its routing state and the
// precomputed route index (folded Clos kinds), or the random regular
// network (rrn). All fields are immutable after Build returns, so a cached
// Topology may be read concurrently without locking.
type Topology struct {
	Key   string
	Canon string
	Spec  Spec // normalized

	// Folded Clos kinds (rfc, cft, kary, oft, xgft).
	Clos   *topology.Clos
	Router *routing.UpDown
	// Index is the precomputed turn index: the dense tier when the N1²
	// table fits DefaultDenseIndexBytes, the succinct tier up to
	// maxSuccinctLeaves, nil beyond that (queries use Router.MinTurn).
	Index routing.TurnIndex

	// rrn only.
	RRN *topology.RRN

	Routable bool
	Attempts int // rfc: generation attempts used
}

// Build constructs the topology a normalized spec describes. The network is
// a pure function of the spec: the same spec always yields an identical
// network. Folded Clos topologies whose N1² turn table fits in
// DefaultDenseIndexBytes carry the dense index tier, larger ones (up to
// maxSuccinctLeaves) the succinct tier. A successful build adds its
// wall-clock cost, and that of the index step, to reg's
// rfcd_build_ns_total and rfcd_index_ns_total; reg may be nil.
func Build(sp Spec, reg *obs.Registry) (*Topology, error) {
	stopBuild := reg.Time(metricBuildNS)
	t := &Topology{Key: sp.Key(), Canon: sp.Canonical(), Spec: sp}
	// Every deterministic folded Clos kind builds through the streaming
	// path: the builder seals CSR level pairs bottom-up and the attached
	// RebuildStream compresses descendant sets as each pair lands. The
	// peak RSS is the same as a batch build's. The rfc kind streams
	// inside GenerateRoutable.
	rs := routing.NewRebuildStream()
	var err error
	switch sp.Kind {
	case "rfc":
		p := core.Params{Radix: sp.Radix, Levels: sp.Levels, Leaves: sp.Leaves}
		t.Clos, t.Router, t.Attempts, err = core.GenerateRoutable(p, 50, rng.New(sp.Seed))
		if err != nil {
			return nil, err
		}
		t.Routable = true
	case "cft":
		t.Clos, err = topology.NewCFTStream(sp.Radix, sp.Levels, rs)
	case "kary":
		t.Clos, err = topology.NewKaryTreeStream(sp.K, sp.Levels, rs)
	case "oft":
		t.Clos, err = topology.NewOFTStream(sp.Q, sp.Levels, rs)
	case "xgft":
		t.Clos, err = topology.NewXGFTStream(sp.M, sp.W, sp.Radix, rs)
	case "rrn":
		t.RRN, err = topology.NewRRN(sp.N, sp.Degree, sp.Terms, rng.New(sp.Seed))
		if err != nil {
			return nil, err
		}
		t.Routable = t.RRN.G.IsConnected()
	default:
		return nil, fmt.Errorf("service: unknown topology kind %q", sp.Kind)
	}
	if err != nil {
		return nil, err
	}
	if t.Clos != nil {
		if t.Clos.NumSwitches() > maxSwitches {
			return nil, fmt.Errorf("service: %s exceeds the %d-switch serving limit", t.Canon, maxSwitches)
		}
		if t.Router == nil {
			t.Router = rs.Finish(t.Clos)
			t.Routable = t.Router.Routable()
		}
	}
	stopIndex := reg.Time(metricIndexNS)
	if t.Clos != nil && t.Clos.LevelSize(1) <= maxSuccinctLeaves {
		t.Index = routing.NewTurnIndex(t.Router, DefaultDenseIndexBytes)
	}
	stopIndex()
	stopBuild()
	return t, nil
}

// Path answers a leaf-to-leaf route query on a folded Clos build: the
// minimal turn level between leaf switches src and dst (negative when
// unroutable) and, when routable, the random shortest up/down path drawn
// from seed's "rfcd/path" stream for the pair. The turn comes from the
// precomputed index when present, from the cover sets otherwise. GET
// /v1/path and POST /v1/paths both answer through it, so single and batch
// responses agree byte for byte.
func (t *Topology) Path(src, dst int, seed uint64) (turn int, path []int32) {
	if t.Index != nil {
		turn = t.Index.MinTurn(src, dst)
	} else {
		turn = t.Router.MinTurn(src, dst)
	}
	if turn < 0 {
		return turn, nil
	}
	stream := rng.At(seed, rng.StringCoord("rfcd/path"), uint64(src), uint64(dst))
	return turn, t.Router.PathAt(src, dst, turn, stream)
}

// Terminals returns the compute-node count of the build.
func (t *Topology) Terminals() int {
	if t.RRN != nil {
		return t.RRN.Terminals()
	}
	return t.Clos.Terminals()
}

// Switches returns the switch count of the build.
func (t *Topology) Switches() int {
	if t.RRN != nil {
		return t.RRN.N()
	}
	return t.Clos.NumSwitches()
}

// Wires returns the inter-switch link count of the build.
func (t *Topology) Wires() int {
	if t.RRN != nil {
		return t.RRN.Wires()
	}
	return t.Clos.Wires()
}

// MemBytes estimates the resident cost of the cached build: the topology's
// own accounting of its CSR level store plus mutation overlay
// (Clos.StoreBytes), the router's compressed cover containers
// (UpDown.CoverBytes via SizeBytes, charged per cover slot, so an upper
// bound where slots share a container), and the turn index. The cache
// charges this against its byte budget, so one huge build evicts many
// small ones rather than none.
func (t *Topology) MemBytes() int64 {
	const sliceHeader = 24
	if t.RRN != nil {
		return int64(t.RRN.Wires())*8 + int64(t.RRN.N())*sliceHeader
	}
	n := int64(t.Clos.StoreBytes())
	if t.Router != nil {
		n += int64(t.Router.SizeBytes())
	}
	if t.Index != nil {
		n += int64(t.Index.SizeBytes())
	}
	return n
}
