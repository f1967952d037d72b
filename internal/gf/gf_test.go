package gf

import (
	"fmt"
	"testing"
)

func TestPrimePower(t *testing.T) {
	cases := []struct {
		q, p, k int
		ok      bool
	}{
		{2, 2, 1, true}, {3, 3, 1, true}, {4, 2, 2, true}, {5, 5, 1, true},
		{6, 0, 0, false}, {7, 7, 1, true}, {8, 2, 3, true}, {9, 3, 2, true},
		{10, 0, 0, false}, {12, 0, 0, false}, {16, 2, 4, true},
		{25, 5, 2, true}, {27, 3, 3, true}, {49, 7, 2, true},
		{100, 0, 0, false},
	}
	for _, c := range cases {
		p, k, ok := primePower(c.q)
		if ok != c.ok || (ok && (p != c.p || k != c.k)) {
			t.Errorf("primePower(%d) = (%d,%d,%v), want (%d,%d,%v)", c.q, p, k, ok, c.p, c.k, c.ok)
		}
		if IsPrimePower(c.q) != c.ok {
			t.Errorf("IsPrimePower(%d) = %v, want %v", c.q, !c.ok, c.ok)
		}
	}
	if IsPrimePower(1) || IsPrimePower(0) {
		t.Error("0 and 1 are not prime powers")
	}
}

// checkFieldAxioms exhaustively verifies the field axioms for GF(q).
func checkFieldAxioms(t *testing.T, q int) {
	t.Helper()
	f, err := NewField(q)
	if err != nil {
		t.Fatalf("NewField(%d): %v", q, err)
	}
	for a := 0; a < q; a++ {
		if f.Add(a, 0) != a || f.Mul(a, 1) != a {
			t.Fatalf("GF(%d): identity laws fail at %d", q, a)
		}
		negs, invs := 0, 0
		for b := 0; b < q; b++ {
			if f.Add(a, b) == 0 {
				negs++
			}
			if f.Mul(a, b) == 1 {
				invs++
			}
		}
		if negs != 1 {
			t.Fatalf("GF(%d): %d has %d additive inverses", q, a, negs)
		}
		if want := min(a, 1); invs != want {
			t.Fatalf("GF(%d): %d has %d multiplicative inverses, want %d", q, a, invs, want)
		}
		for b := 0; b < q; b++ {
			if f.Add(a, b) != f.Add(b, a) || f.Mul(a, b) != f.Mul(b, a) {
				t.Fatalf("GF(%d): commutativity fails at (%d,%d)", q, a, b)
			}
			for c := 0; c < q; c++ {
				if f.Add(f.Add(a, b), c) != f.Add(a, f.Add(b, c)) {
					t.Fatalf("GF(%d): add associativity fails", q)
				}
				if f.Mul(f.Mul(a, b), c) != f.Mul(a, f.Mul(b, c)) {
					t.Fatalf("GF(%d): mul associativity fails", q)
				}
				if f.Mul(a, f.Add(b, c)) != f.Add(f.Mul(a, b), f.Mul(a, c)) {
					t.Fatalf("GF(%d): distributivity fails", q)
				}
			}
		}
	}
	// No zero divisors.
	for a := 1; a < q; a++ {
		for b := 1; b < q; b++ {
			if f.Mul(a, b) == 0 {
				t.Fatalf("GF(%d): zero divisor %d*%d", q, a, b)
			}
		}
	}
}

func TestFieldAxiomsPrime(t *testing.T) {
	for _, q := range []int{2, 3, 5, 7, 11, 13} {
		checkFieldAxioms(t, q)
	}
}

func TestFieldAxiomsExtension(t *testing.T) {
	for _, q := range []int{4, 8, 9, 16, 25, 27} {
		checkFieldAxioms(t, q)
	}
}

func TestNewFieldErrors(t *testing.T) {
	for _, q := range []int{0, 1, 6, 10, 12, 15, 300} {
		if _, err := NewField(q); err == nil {
			t.Errorf("NewField(%d) should fail", q)
		}
	}
}

func TestPlaneSmallOrders(t *testing.T) {
	for _, q := range []int{2, 3, 4, 5, 7, 8, 9} {
		pl, err := NewPlane(q)
		if err != nil {
			t.Fatalf("NewPlane(%d): %v", q, err)
		}
		if err := validatePlane(pl); err != nil {
			t.Errorf("plane order %d: %v", q, err)
		}
	}
}

func TestPlaneFano(t *testing.T) {
	// PG(2,2) is the Fano plane: 7 points, 7 lines of 3 points each.
	pl, err := NewPlane(2)
	if err != nil {
		t.Fatal(err)
	}
	if pl.N != 7 {
		t.Fatalf("Fano plane has %d points, want 7", pl.N)
	}
	for _, pts := range pl.LinePoints {
		if len(pts) != 3 {
			t.Errorf("Fano line has %d points, want 3", len(pts))
		}
	}
}

func TestPlaneInvalidOrder(t *testing.T) {
	if _, err := NewPlane(6); err == nil {
		t.Error("NewPlane(6) should fail (6 is not a prime power)")
	}
}

func BenchmarkNewPlane9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewPlane(9); err != nil {
			b.Fatal(err)
		}
	}
}

// validatePlane checks the projective plane axioms on pl.
func validatePlane(pl *Plane) error {
	q, n := pl.Q, pl.N
	if n != q*q+q+1 {
		return fmt.Errorf("gf: plane size %d != q²+q+1", n)
	}
	for l, pts := range pl.LinePoints {
		if len(pts) != q+1 {
			return fmt.Errorf("gf: line %d has %d points, want %d", l, len(pts), q+1)
		}
	}
	for p, ls := range pl.PointLines {
		if len(ls) != q+1 {
			return fmt.Errorf("gf: point %d lies on %d lines, want %d", p, len(ls), q+1)
		}
	}
	// Any two distinct points share exactly one line.
	onLine := make([]map[int32]bool, n)
	for p := range onLine {
		onLine[p] = make(map[int32]bool, q+1)
		for _, l := range pl.PointLines[p] {
			onLine[p][l] = true
		}
	}
	for p1 := 0; p1 < n; p1++ {
		for p2 := p1 + 1; p2 < n; p2++ {
			shared := 0
			for _, l := range pl.PointLines[p1] {
				if onLine[p2][l] {
					shared++
				}
			}
			if shared != 1 {
				return fmt.Errorf("gf: points %d,%d share %d lines, want 1", p1, p2, shared)
			}
		}
	}
	return nil
}
