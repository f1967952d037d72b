package gf

import "fmt"

// Plane is the projective plane PG(2, q): N = q²+q+1 points and N lines,
// each line containing q+1 points and each point lying on q+1 lines, such
// that any two distinct points share exactly one line and any two distinct
// lines meet in exactly one point. The OFT of order q wires its switch
// levels by this incidence.
type Plane struct {
	Q, N int
	// PointLines[p] lists the q+1 lines through point p.
	PointLines [][]int32
	// LinePoints[l] lists the q+1 points on line l.
	LinePoints [][]int32
}

// NewPlane builds PG(2, q) for a prime power q.
func NewPlane(q int) (*Plane, error) {
	f, err := NewField(q)
	if err != nil {
		return nil, fmt.Errorf("gf: plane of order %d: %w", q, err)
	}
	n := q*q + q + 1
	// Canonical homogeneous coordinates: (1, a, b), (0, 1, a), (0, 0, 1).
	points := make([][3]int, 0, n)
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			points = append(points, [3]int{1, a, b})
		}
	}
	for a := 0; a < q; a++ {
		points = append(points, [3]int{0, 1, a})
	}
	points = append(points, [3]int{0, 0, 1})

	pl := &Plane{
		Q:          q,
		N:          n,
		PointLines: make([][]int32, n),
		LinePoints: make([][]int32, n),
	}
	// Lines use the same canonical coordinates; point p is on line l iff
	// the dot product of their coordinate vectors is zero.
	for l := 0; l < n; l++ {
		lc := points[l]
		for p := 0; p < n; p++ {
			pc := points[p]
			dot := f.Add(f.Add(f.Mul(lc[0], pc[0]), f.Mul(lc[1], pc[1])), f.Mul(lc[2], pc[2]))
			if dot == 0 {
				pl.LinePoints[l] = append(pl.LinePoints[l], int32(p))
				pl.PointLines[p] = append(pl.PointLines[p], int32(l))
			}
		}
	}
	return pl, nil
}
