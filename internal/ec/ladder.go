package ec

import (
	"repro/internal/gf2"
	"repro/internal/mp"
)

// MontLadderMult computes x·P with the López-Dahab Montgomery ladder
// (Section 4.1 evaluated it for Billie and found it slower than the
// sliding window — Figure 7.14 reproduces that comparison). Only the
// x-coordinates are carried through the ladder; y is recovered at the end.
func (c *BinaryCurve) MontLadderMult(x mp.Int, p *BinaryAffinePoint) *BinaryAffinePoint {
	f := c.F
	k := f.K
	if x.IsZero() || p.Inf {
		return &BinaryAffinePoint{X: gf2.New(k), Y: gf2.New(k), Inf: true}
	}
	// X1/Z1 tracks j·P, X2/Z2 tracks (j+1)·P.
	X1 := p.X.Clone()
	Z1 := f.One.Clone()
	X2 := gf2.New(k)
	Z2 := gf2.New(k)
	f.Sqr(Z2, p.X)
	f.Sqr(X2, Z2)
	f.Add(X2, X2, c.B) // X2 = x^4 + b, Z2 = x^2  (double of P)
	bits := x.BitLen()
	for i := bits - 2; i >= 0; i-- {
		if x.Bit(i) == 1 {
			c.madd(X1, Z1, X2, Z2, p.X)
			c.mdouble(X2, Z2)
		} else {
			c.madd(X2, Z2, X1, Z1, p.X)
			c.mdouble(X1, Z1)
		}
		c.Ops.Dbl++
		c.Ops.Add++
	}
	return c.ladderRecover(p, X1, Z1, X2, Z2)
}

// madd performs the ladder's simultaneous-add step (Guide to ECC Algorithm
// 3.40): (X1,Z1) ← (X1,Z1) + (X2,Z2), whose difference is the base point
// with affine x-coordinate xP. Cost 4M + 1S.
func (c *BinaryCurve) madd(X1, Z1, X2, Z2, xP gf2.Elem) {
	f := c.F
	k := f.K
	t1 := gf2.New(k)
	t2 := gf2.New(k)
	f.Mul(t1, X1, Z2) // T1 = X1 Z2
	f.Mul(t2, X2, Z1) // T2 = X2 Z1
	f.Add(Z1, t1, t2) //
	f.Sqr(Z1, Z1)     // Z1' = (T1 + T2)^2
	f.Mul(t1, t1, t2) // T1 T2
	f.Mul(t2, xP, Z1) // x Z1'
	f.Add(X1, t1, t2) // X1' = x Z1' + T1 T2
}

// mdouble performs the ladder doubling step: (X,Z) ← 2(X,Z). Cost 2M + 4S
// (one of the multiplications is by the curve constant b).
func (c *BinaryCurve) mdouble(X, Z gf2.Elem) {
	f := c.F
	k := f.K
	t1 := gf2.New(k)
	t2 := gf2.New(k)
	f.Sqr(t1, X)       // T1 = X^2
	f.Sqr(t2, Z)       // T2 = Z^2
	f.Mul(Z, t1, t2)   // Z' = X^2 Z^2
	f.Sqr(t1, t1)      // X^4
	f.Sqr(t2, t2)      // Z^4
	f.Mul(t2, t2, c.B) // b Z^4
	f.Add(X, t1, t2)   // X' = X^4 + b Z^4
}

// ladderRecover reconstructs the affine result of the ladder (Algorithm
// 3.41): given P = (x, y), (X1,Z1) = kP and (X2,Z2) = (k+1)P,
//
//	x3 = X1/Z1
//	y3 = (x + x3) · [(X1 + x Z1)(X2 + x Z2) + (x^2 + y)(Z1 Z2)]
//	     / (x Z1 Z2) + y
func (c *BinaryCurve) ladderRecover(p *BinaryAffinePoint, X1, Z1, X2, Z2 gf2.Elem) *BinaryAffinePoint {
	f := c.F
	k := f.K
	if Z1.IsZero() {
		return &BinaryAffinePoint{X: gf2.New(k), Y: gf2.New(k), Inf: true}
	}
	if Z2.IsZero() {
		// (k+1)P = infinity, so kP = -P.
		return c.NegAffine(p)
	}
	t1 := gf2.New(k)
	t2 := gf2.New(k)
	t3 := gf2.New(k)
	t4 := gf2.New(k)
	f.Mul(t1, p.X, Z1) // x Z1
	f.Add(t1, t1, X1)  // X1 + x Z1
	f.Mul(t2, p.X, Z2) // x Z2
	f.Add(t2, t2, X2)  // X2 + x Z2
	f.Mul(t1, t1, t2)  // (X1 + x Z1)(X2 + x Z2)
	f.Sqr(t2, p.X)     // x^2
	f.Add(t2, t2, p.Y) // x^2 + y
	f.Mul(t3, Z1, Z2)  // Z1 Z2
	f.Mul(t2, t2, t3)  // (x^2 + y) Z1 Z2
	f.Add(t1, t1, t2)  // bracket
	f.Mul(t3, t3, p.X) // x Z1 Z2
	f.Inv(t3, t3)      // 1 / (x Z1 Z2)
	f.Mul(t1, t1, t3)  // bracket / (x Z1 Z2)
	// x3 = X1 / Z1 = X1 · x · Z2 · (x Z1 Z2)^-1
	x3 := gf2.New(k)
	f.Mul(x3, X1, Z2)
	f.Mul(x3, x3, p.X)
	f.Mul(x3, x3, t3)
	y3 := gf2.New(k)
	f.Add(t4, p.X, x3) // x + x3
	f.Mul(y3, t4, t1)
	f.Add(y3, y3, p.Y)
	return &BinaryAffinePoint{X: x3, Y: y3}
}
