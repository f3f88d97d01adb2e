package ec

import (
	"fmt"

	"repro/internal/gf2"
	"repro/internal/mp"
)

// BinaryCurve is y^2 + xy = x^3 + a x^2 + b over GF(2^m); all NIST
// B-curves have a = 1.
type BinaryCurve struct {
	Name   string
	F      *gf2.Field
	A      uint // curve coefficient a (0 or 1)
	B      gf2.Elem
	Gx, Gy gf2.Elem
	N      mp.Int // group order
	NBits  int

	Ops PointOpCounters
}

// LDPoint is a López-Dahab projective point (X, Y, Z) with x = X/Z,
// y = Y/Z^2; Z == 0 encodes the point at infinity.
type LDPoint struct {
	X, Y, Z gf2.Elem
}

// BinaryAffinePoint is an affine point on a binary curve.
type BinaryAffinePoint struct {
	X, Y gf2.Elem
	Inf  bool
}

// Infinity returns a fresh point at infinity.
func (c *BinaryCurve) Infinity() *LDPoint {
	return &LDPoint{X: gf2.New(c.F.K), Y: gf2.New(c.F.K), Z: gf2.New(c.F.K)}
}

// IsInf reports whether p is the point at infinity.
func (p *LDPoint) IsInf() bool { return p.Z.IsZero() }

// Set copies q into p.
func (p *LDPoint) Set(q *LDPoint) {
	copy(p.X, q.X)
	copy(p.Y, q.Y)
	copy(p.Z, q.Z)
}

// FromAffine converts a to LD coordinates (Z = 1).
func (c *BinaryCurve) FromAffine(a *BinaryAffinePoint) *LDPoint {
	p := c.Infinity()
	if a.Inf {
		return p
	}
	copy(p.X, a.X)
	copy(p.Y, a.Y)
	p.Z[0] = 1
	return p
}

// ToAffine converts p back to affine coordinates (one field inversion).
func (c *BinaryCurve) ToAffine(p *LDPoint) *BinaryAffinePoint {
	c.Ops.ToAffine++
	f := c.F
	if p.IsInf() {
		return &BinaryAffinePoint{X: gf2.New(f.K), Y: gf2.New(f.K), Inf: true}
	}
	zi := gf2.New(f.K)
	f.Inv(zi, p.Z)
	x := gf2.New(f.K)
	f.Mul(x, p.X, zi)
	zi2 := gf2.New(f.K)
	f.Sqr(zi2, zi)
	y := gf2.New(f.K)
	f.Mul(y, p.Y, zi2)
	return &BinaryAffinePoint{X: x, Y: y}
}

// Dbl sets p = 2q in LD coordinates (4M + 5S, Guide to ECC Algorithm
// 3.24 for a ∈ {0,1}).
func (c *BinaryCurve) Dbl(p, q *LDPoint) {
	c.Ops.Dbl++
	f := c.F
	if q.IsInf() || q.X.IsZero() {
		// 2(0, y) = infinity on these curves.
		p.Set(c.Infinity())
		if !q.IsInf() && !q.X.IsZero() {
			p.Set(q)
		}
		return
	}
	k := f.K
	t1 := gf2.New(k) // Z1^2
	t2 := gf2.New(k) // X1^2
	bz4 := gf2.New(k)
	x3 := gf2.New(k)
	y3 := gf2.New(k)
	z3 := gf2.New(k)

	f.Sqr(t1, q.Z)       // t1 = Z1^2
	f.Sqr(t2, q.X)       // t2 = X1^2
	f.Mul(z3, t1, t2)    // Z3 = X1^2 Z1^2
	f.Sqr(x3, t2)        // x3 = X1^4
	f.Sqr(bz4, t1)       // bz4 = Z1^4
	f.Mul(bz4, bz4, c.B) // bz4 = b Z1^4
	f.Add(x3, x3, bz4)   // X3 = X1^4 + b Z1^4
	f.Sqr(t2, q.Y)       // t2 = Y1^2
	if c.A == 1 {
		f.Add(t2, t2, z3) // + a Z3
	}
	f.Add(t2, t2, bz4) // t2 = a Z3 + Y1^2 + b Z1^4
	f.Mul(y3, x3, t2)  // y3 = X3 (a Z3 + Y1^2 + b Z1^4)
	f.Mul(t2, bz4, z3) // t2 = b Z1^4 Z3
	f.Add(y3, y3, t2)  // Y3
	copy(p.X, x3)
	copy(p.Y, y3)
	copy(p.Z, z3)
}

// AddMixed sets p = q + r where r is affine (mixed LD-affine addition,
// 8M + 5S, Guide to ECC Algorithm 3.25 / Al-Daoud et al. for a ∈ {0,1}).
func (c *BinaryCurve) AddMixed(p, q *LDPoint, r *BinaryAffinePoint) {
	c.Ops.Add++
	f := c.F
	if r.Inf {
		p.Set(q)
		return
	}
	if q.IsInf() {
		p.Set(c.FromAffine(r))
		return
	}
	k := f.K
	a := gf2.New(k)
	b := gf2.New(k)
	t := gf2.New(k)

	f.Sqr(t, q.Z)      // t = Z1^2
	f.Mul(a, r.Y, t)   // A = Y2 Z1^2
	f.Add(a, a, q.Y)   // A = Y2 Z1^2 + Y1
	f.Mul(b, r.X, q.Z) // B = X2 Z1
	f.Add(b, b, q.X)   // B = X2 Z1 + X1
	if b.IsZero() {
		if a.IsZero() {
			// Same point: double.
			c.Ops.Add--
			c.Dbl(p, q)
			return
		}
		p.Set(c.Infinity()) // q = -r
		return
	}
	cc := gf2.New(k)
	f.Mul(cc, q.Z, b) // C = Z1 B
	d := gf2.New(k)
	f.Sqr(d, b) // B^2
	t2 := gf2.New(k)
	if c.A == 1 {
		f.Add(t2, cc, t) // C + a Z1^2 with a=1
	} else {
		copy(t2, cc)
	}
	f.Mul(d, d, t2) // D = B^2 (C + a Z1^2)
	z3 := gf2.New(k)
	f.Sqr(z3, cc) // Z3 = C^2
	e := gf2.New(k)
	f.Mul(e, a, cc) // E = A C
	x3 := gf2.New(k)
	f.Sqr(x3, a)     // A^2
	f.Add(x3, x3, d) //
	f.Add(x3, x3, e) // X3 = A^2 + D + E
	ff := gf2.New(k)
	f.Mul(t, r.X, z3) // X2 Z3
	f.Add(ff, x3, t)  // F = X3 + X2 Z3
	g := gf2.New(k)
	f.Add(t, r.X, r.Y) // X2 + Y2
	f.Sqr(t2, z3)      // Z3^2
	f.Mul(g, t, t2)    // G = (X2 + Y2) Z3^2
	y3 := gf2.New(k)
	f.Add(t, e, z3)  // E + Z3
	f.Mul(y3, t, ff) // (E + Z3) F
	f.Add(y3, y3, g) // Y3 = (E+Z3) F + G
	copy(p.X, x3)
	copy(p.Y, y3)
	copy(p.Z, z3)
}

// NegAffine returns -a = (x, x + y).
func (c *BinaryCurve) NegAffine(a *BinaryAffinePoint) *BinaryAffinePoint {
	c.Ops.Neg++
	if a.Inf {
		return a
	}
	y := gf2.New(c.F.K)
	c.F.Add(y, a.X, a.Y)
	return &BinaryAffinePoint{X: a.X.Clone(), Y: y}
}

// AddAffine adds two affine points with the textbook formulas (Section
// 2.1.5); used for precomputation tables and as a test oracle.
func (c *BinaryCurve) AddAffine(a, b *BinaryAffinePoint) *BinaryAffinePoint {
	f := c.F
	k := f.K
	if a.Inf {
		return &BinaryAffinePoint{X: b.X.Clone(), Y: b.Y.Clone(), Inf: b.Inf}
	}
	if b.Inf {
		return &BinaryAffinePoint{X: a.X.Clone(), Y: a.Y.Clone(), Inf: a.Inf}
	}
	lam := gf2.New(k)
	t := gf2.New(k)
	if gf2.Equal(a.X, b.X) {
		ny := gf2.New(k)
		f.Add(ny, b.X, b.Y)
		if gf2.Equal(a.Y, ny) || a.X.IsZero() {
			return &BinaryAffinePoint{X: gf2.New(k), Y: gf2.New(k), Inf: true}
		}
		// Doubling: lambda = x + y/x.
		f.Inv(t, a.X)
		f.Mul(lam, a.Y, t)
		f.Add(lam, lam, a.X)
		x3 := gf2.New(k)
		f.Sqr(x3, lam)
		f.Add(x3, x3, lam)
		if c.A == 1 {
			f.Add(x3, x3, f.One)
		}
		y3 := gf2.New(k)
		f.Sqr(y3, a.X) // x^2
		f.Mul(t, lam, x3)
		f.Add(y3, y3, t)
		f.Add(y3, y3, x3)
		return &BinaryAffinePoint{X: x3, Y: y3}
	}
	num := gf2.New(k)
	f.Add(num, a.Y, b.Y)
	den := gf2.New(k)
	f.Add(den, a.X, b.X)
	f.Inv(t, den)
	f.Mul(lam, num, t)
	x3 := gf2.New(k)
	f.Sqr(x3, lam)
	f.Add(x3, x3, lam)
	f.Add(x3, x3, a.X)
	f.Add(x3, x3, b.X)
	if c.A == 1 {
		f.Add(x3, x3, f.One)
	}
	y3 := gf2.New(k)
	f.Add(t, a.X, x3)
	f.Mul(y3, lam, t)
	f.Add(y3, y3, x3)
	f.Add(y3, y3, a.Y)
	return &BinaryAffinePoint{X: x3, Y: y3}
}

// OnCurve verifies y^2 + xy = x^3 + a x^2 + b.
func (c *BinaryCurve) OnCurve(a *BinaryAffinePoint) bool {
	if a.Inf {
		return true
	}
	f := c.F
	k := f.K
	lhs := gf2.New(k)
	f.Sqr(lhs, a.Y)
	t := gf2.New(k)
	f.Mul(t, a.X, a.Y)
	f.Add(lhs, lhs, t)
	rhs := gf2.New(k)
	f.Sqr(rhs, a.X)
	if c.A == 1 {
		f.Add(t, rhs, gf2.New(k)) // t = x^2 (a=1 term)
	} else {
		for i := range t {
			t[i] = 0
		}
	}
	f.Mul(rhs, rhs, a.X) // x^3
	f.Add(rhs, rhs, t)
	f.Add(rhs, rhs, c.B)
	return gf2.Equal(lhs, rhs)
}

// Generator returns the base point.
func (c *BinaryCurve) Generator() *BinaryAffinePoint {
	return &BinaryAffinePoint{X: c.Gx.Clone(), Y: c.Gy.Clone()}
}

// BatchToAffine converts LD points to affine with one shared field
// inversion (Montgomery's simultaneous-inversion trick).
func (c *BinaryCurve) BatchToAffine(ps []*LDPoint) []*BinaryAffinePoint {
	f := c.F
	k := f.K
	out := make([]*BinaryAffinePoint, len(ps))
	prefix := make([]gf2.Elem, len(ps))
	acc := f.One.Clone()
	for i, p := range ps {
		prefix[i] = acc.Clone()
		if !p.IsInf() {
			t := gf2.New(k)
			f.Mul(t, acc, p.Z)
			acc = t
		}
	}
	inv := gf2.New(k)
	f.Inv(inv, acc)
	c.Ops.ToAffine++
	for i := len(ps) - 1; i >= 0; i-- {
		p := ps[i]
		if p.IsInf() {
			out[i] = &BinaryAffinePoint{X: gf2.New(k), Y: gf2.New(k), Inf: true}
			continue
		}
		zi := gf2.New(k)
		f.Mul(zi, inv, prefix[i]) // 1/Z_i
		t := gf2.New(k)
		f.Mul(t, inv, p.Z)
		copy(inv, t)
		x := gf2.New(k)
		f.Mul(x, p.X, zi)
		zi2 := gf2.New(k)
		f.Sqr(zi2, zi)
		y := gf2.New(k)
		f.Mul(y, p.Y, zi2)
		out[i] = &BinaryAffinePoint{X: x, Y: y}
	}
	return out
}

// Order returns the group order and its bit length.
func (c *BinaryCurve) Order() (mp.Int, int) { return c.N, c.NBits }

// AffineX returns a.X's bit pattern as an integer, or ok = false at
// infinity.
func (c *BinaryCurve) AffineX(a *BinaryAffinePoint) (mp.Int, bool) { return mp.Int(a.X), !a.Inf }

// OpCounts snapshots the field and point operation counters.
func (c *BinaryCurve) OpCounts() (FieldOps, PointOpCounters) {
	f := c.F.Counters
	return FieldOps{Mul: f.Mul, Sqr: f.Sqr, Add: f.Add, Inv: f.Inv}, c.Ops
}

// ResetOpCounts zeroes the field and point operation counters.
func (c *BinaryCurve) ResetOpCounts() {
	c.F.Counters.Reset()
	c.Ops.Reset()
}

func (c *BinaryCurve) String() string {
	return fmt.Sprintf("%s over %s", c.Name, c.F.String())
}
