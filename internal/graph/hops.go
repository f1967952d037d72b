package graph

import (
	"fmt"
	"math/bits"

	"rfclos/internal/engine"
)

// MaxHops is the largest distance a HopTable entry holds.
const MaxHops = 255

// HopError reports why a graph has no hop table: To is the lowest vertex
// that the lowest failing source From cannot reach (Dist -1) or reaches
// only beyond MaxHops (Dist is then its distance).
type HopError struct{ From, To, Dist int }

func (e *HopError) Error() string {
	return fmt.Sprintf("graph: vertex %d unreachable from %d (distance %d)", e.To, e.From, e.Dist)
}

// HopTable returns every pair's hop distance, rows[v][w] = d(v, w), and the
// diameter. The rows share one n² allocation. It fails with a *HopError
// when the graph is disconnected or some distance exceeds MaxHops.
//
// The sweep is a bit-parallel multi-source BFS: sources go in blocks of 64,
// one machine word per vertex holding which of the block's sources have
// reached it. Each level ORs the frontier words of a vertex's neighbours,
// so a block costs about diameter × (sum of degrees) word operations
// instead of 64 queue BFS runs. Since d(s, v) = d(v, s), a bit reaching v
// at level k is written to row v at the source's column, keeping each
// vertex's writes for the block inside one 64-byte span. Up to `workers`
// goroutines (0 = one per CPU) each sweep every workers-th block with one
// set of frontier words; the table holds exact distances, so it is the
// same at any worker count.
func (g *Graph) HopTable(workers int) (rows [][]uint8, diameter int, err error) {
	n := g.N()
	flat := make([]uint8, n*n)
	rows = make([][]uint8, n)
	for v := range rows {
		rows[v] = flat[v*n : (v+1)*n : (v+1)*n]
	}
	nb := (n + 63) / 64
	w := min(engine.Workers(workers), max(1, nb))
	// Each block keeps its own error, so the one returned is the lowest
	// failing block's, whichever worker swept it; the jobs return none.
	diams, errs := make([]int, nb), make([]error, nb)
	_, _ = engine.Run(w, w, func(j int) (struct{}, error) {
		var sc [3][]uint64
		for i := range sc {
			sc[i] = make([]uint64, n)
		}
		for b := j; b < nb; b += w {
			diams[b], errs[b] = g.hopBlock(flat, 64*b, sc)
		}
		return struct{}{}, nil
	})
	for b, err := range errs {
		if err != nil {
			return nil, 0, err
		}
		diameter = max(diameter, diams[b])
	}
	return rows, diameter, nil
}

// hopBlock fills the columns [lo, lo+64) of the flat table from the sources
// lo.. and returns their largest eccentricity. sc is its scratch: three
// words per vertex, overwritten.
func (g *Graph) hopBlock(flat []uint8, lo int, sc [3][]uint64) (int, error) {
	n := g.N()
	hi := min(lo+64, n)
	full := ^uint64(0) >> (64 - (hi - lo))
	seen, front, next := sc[0], sc[1], sc[2]
	clear(seen)
	clear(front)
	for s := lo; s < hi; s++ {
		seen[s] = 1 << (s - lo)
		front[s] = seen[s]
	}
	ecc, bad := 0, uint64(0)
	for k := 1; ; k++ {
		var added uint64
		for v, adj := range g.adj {
			sv := seen[v]
			if sv == full {
				next[v] = 0
				continue
			}
			var acc uint64
			for _, u := range adj {
				acc |= front[u]
			}
			acc &^= sv
			next[v] = acc
			if acc == 0 {
				continue
			}
			seen[v] = sv | acc
			added |= acc
			if k > MaxHops {
				continue
			}
			row := flat[v*n+lo : v*n+hi]
			for w := acc; w != 0; w &= w - 1 {
				row[bits.TrailingZeros64(w)] = uint8(k)
			}
		}
		if added == 0 {
			break
		}
		if k > MaxHops {
			bad = added
			break
		}
		ecc = k
		front, next = next, front
	}
	// A source fails when it still reached new vertices past MaxHops or
	// left some vertex unseen after its search ended.
	for _, sv := range seen {
		bad |= full &^ sv
	}
	if bad != 0 {
		return 0, g.hopError(lo + bits.TrailingZeros64(bad))
	}
	return ecc, nil
}

// hopError describes a failing source with a plain BFS, naming its lowest
// unreachable or too-distant vertex.
func (g *Graph) hopError(from int) error {
	for v, d := range g.BFS(from, nil) {
		if d < 0 || d > MaxHops {
			return &HopError{From: from, To: v, Dist: int(d)}
		}
	}
	panic(fmt.Sprintf("graph: source %d flagged by the hop sweep has no failing vertex", from))
}
