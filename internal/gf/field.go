// Package gf implements finite fields GF(p^k) of small order and the
// projective planes PG(2, q) built from them. The orthogonal fat-tree (OFT)
// baseline of the paper is defined from the projective plane of order q, so
// this package is the substrate for every OFT construction and experiment.
package gf

import "fmt"

// Field is a finite field GF(q) with q = p^k <= 256, represented by dense
// operation tables. Elements are the integers 0..q-1; 0 and 1 are the
// additive and multiplicative identities.
type Field struct {
	P, K, Q int
	add     [][]uint8
	mul     [][]uint8
}

// NewField constructs GF(q). It returns an error when q is not a prime power
// or exceeds 256.
func NewField(q int) (*Field, error) {
	if q < 2 || q > 256 {
		return nil, fmt.Errorf("gf: order %d out of supported range [2,256]", q)
	}
	p, k, ok := primePower(q)
	if !ok {
		return nil, fmt.Errorf("gf: %d is not a prime power", q)
	}
	f := &Field{P: p, K: k, Q: q}
	if k == 1 {
		f.buildPrimeTables()
	} else {
		poly, err := findIrreducible(p, k)
		if err != nil {
			return nil, err
		}
		f.buildExtensionTables(poly)
	}
	return f, nil
}

// primePower factors q as p^k for prime p, reporting ok=false otherwise.
func primePower(q int) (p, k int, ok bool) {
	for p = 2; p*p <= q; p++ {
		if q%p == 0 {
			k = 0
			for n := q; n > 1; n /= p {
				if n%p != 0 {
					return 0, 0, false
				}
				k++
			}
			return p, k, true
		}
	}
	return q, 1, true // q itself is prime
}

func (f *Field) allocTables() {
	f.add = make([][]uint8, f.Q)
	f.mul = make([][]uint8, f.Q)
	for i := range f.add {
		f.add[i] = make([]uint8, f.Q)
		f.mul[i] = make([]uint8, f.Q)
	}
}

func (f *Field) buildPrimeTables() {
	f.allocTables()
	for a := 0; a < f.Q; a++ {
		for b := 0; b < f.Q; b++ {
			f.add[a][b] = uint8((a + b) % f.Q)
			f.mul[a][b] = uint8((a * b) % f.Q)
		}
	}
}

// buildExtensionTables represents elements as polynomials over GF(p) in
// base-p digits: element e = sum e_i x^i with e_i = (e / p^i) mod p.
// Multiplication reduces modulo the supplied irreducible polynomial, given
// as coefficient slice poly[0..k] with poly[k] == 1.
func (f *Field) buildExtensionTables(poly []int) {
	f.allocTables()
	p, k := f.P, f.K
	digits := func(e int) []int {
		d := make([]int, k)
		for i := 0; i < k; i++ {
			d[i] = e % p
			e /= p
		}
		return d
	}
	undigits := func(d []int) int {
		e := 0
		for i := k - 1; i >= 0; i-- {
			e = e*p + d[i]
		}
		return e
	}
	for a := 0; a < f.Q; a++ {
		da := digits(a)
		for b := 0; b < f.Q; b++ {
			db := digits(b)
			s := make([]int, k)
			for i := 0; i < k; i++ {
				s[i] = (da[i] + db[i]) % p
			}
			f.add[a][b] = uint8(undigits(s))
			// Polynomial product then reduction mod poly.
			prod := make([]int, 2*k-1)
			for i := 0; i < k; i++ {
				if da[i] == 0 {
					continue
				}
				for j := 0; j < k; j++ {
					prod[i+j] = (prod[i+j] + da[i]*db[j]) % p
				}
			}
			for deg := 2*k - 2; deg >= k; deg-- {
				c := prod[deg]
				if c == 0 {
					continue
				}
				prod[deg] = 0
				// x^deg = -poly[0..k-1] * x^(deg-k) (since poly monic).
				for j := 0; j < k; j++ {
					prod[deg-k+j] = (prod[deg-k+j] + c*(p-poly[j])) % p
				}
			}
			f.mul[a][b] = uint8(undigits(prod[:k]))
		}
	}
}

// findIrreducible searches for a monic irreducible polynomial of degree k
// over GF(p), returned as coefficients c[0..k] with c[k] = 1. Existence is
// guaranteed; the search space is tiny for the orders used here.
func findIrreducible(p, k int) ([]int, error) {
	total := 1
	for i := 0; i < k; i++ {
		total *= p
	}
	coeffs := make([]int, k+1)
	coeffs[k] = 1
	for enc := 0; enc < total; enc++ {
		e := enc
		for i := 0; i < k; i++ {
			coeffs[i] = e % p
			e /= p
		}
		if isIrreducible(coeffs, p, k) {
			out := make([]int, k+1)
			copy(out, coeffs)
			return out, nil
		}
	}
	return nil, fmt.Errorf("gf: no irreducible polynomial of degree %d over GF(%d)", k, p)
}

// isIrreducible performs trial division by every monic polynomial of degree
// 1..k/2 over GF(p). Adequate for the tiny degrees used here (k <= 4).
func isIrreducible(poly []int, p, k int) bool {
	if poly[0] == 0 {
		return false // divisible by x
	}
	for d := 1; d <= k/2; d++ {
		total := 1
		for i := 0; i < d; i++ {
			total *= p
		}
		div := make([]int, d+1)
		div[d] = 1
		for enc := 0; enc < total; enc++ {
			e := enc
			for i := 0; i < d; i++ {
				div[i] = e % p
				e /= p
			}
			if polyDivides(div, poly, p) {
				return false
			}
		}
	}
	return true
}

// polyDivides reports whether monic divisor d divides poly over GF(p).
func polyDivides(d, poly []int, p int) bool {
	rem := append([]int(nil), poly...)
	dd := len(d) - 1
	for deg := len(rem) - 1; deg >= dd; deg-- {
		c := rem[deg]
		if c == 0 {
			continue
		}
		for j := 0; j <= dd; j++ {
			rem[deg-dd+j] = ((rem[deg-dd+j]-c*d[j])%p + p*p) % p
		}
	}
	for _, c := range rem[:dd] {
		if c != 0 {
			return false
		}
	}
	return true
}

// Add returns a + b in the field.
func (f *Field) Add(a, b int) int { return int(f.add[a][b]) }

// Mul returns a * b in the field.
func (f *Field) Mul(a, b int) int { return int(f.mul[a][b]) }

// IsPrimePower reports whether q is a prime power (and hence a valid OFT
// order).
func IsPrimePower(q int) bool {
	if q < 2 {
		return false
	}
	_, _, ok := primePower(q)
	return ok
}
