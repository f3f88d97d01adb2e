// Package ecdsa implements the Elliptic Curve Digital Signature Algorithm
// (FIPS 186) over the NIST prime and binary curves — the benchmark workload
// of the paper (Section 4.1). A signature costs one single scalar point
// multiplication; a verification costs one twin scalar point
// multiplication; both also perform arithmetic modulo the group order,
// which always stays on the processor ("Pete") even in the accelerated
// configurations (a key Amdahl's-law observation of Section 7.3). That
// order arithmetic is integer (prime-field) work on binary curves too,
// which is why ECDSA "still requires prime-field mathematics"
// (Section 2.1.4).
//
// Key generation, signing, verification, ECDH and their profilers are
// written once over ec.Curve; the one per-family difference above the
// point layer is the signing-nonce derivation (signingNonce).
package ecdsa

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"

	"repro/internal/ec"
	"repro/internal/mp"
)

// PrivateKey is an ECDSA private key on a curve of either family (P and A
// are the curve's projective and affine point types).
type PrivateKey[P, A any] struct {
	Curve ec.Curve[P, A]
	D     mp.Int // secret scalar
	Q     A      // public point D*G
}

// Signature is an (r, s) ECDSA signature.
type Signature struct {
	R, S mp.Int
}

// newOrderField returns a fresh Montgomery field for arithmetic modulo
// the group order n (no NIST fast reduction exists for the orders). Each
// operation gets its own instance so its op counters are private — Sign,
// Verify and the profilers are safe to run concurrently (the parallel
// sweep engine relies on this).
func newOrderField[P, A any](curve ec.Curve[P, A]) *mp.Field {
	n, bits := curve.Order()
	return mp.NewField("order", bits, n, mp.CIOS)
}

// GenerateKey derives a private key deterministically from seed material —
// the simulated embedded system has no OS entropy source, matching the
// paper's bare-metal environment (Section 4.3).
func GenerateKey[P, A any](curve ec.Curve[P, A], seed []byte) *PrivateKey[P, A] {
	n, _ := curve.Order()
	d := hashToScalar(seed, n)
	q := ec.ScalarMult(curve, d, curve.Generator())
	return &PrivateKey[P, A]{Curve: curve, D: d, Q: q}
}

// GenerateBinaryKey is GenerateKey on a binary curve.
func GenerateBinaryKey(curve *ec.BinaryCurve, seed []byte) *PrivateKey[*ec.LDPoint, *ec.BinaryAffinePoint] {
	return GenerateKey(curve, seed)
}

// hashToScalar maps bytes to a nonzero scalar in [1, n-1].
func hashToScalar(b []byte, n mp.Int) mp.Int {
	ctr := byte(0)
	for {
		h := sha256.New()
		h.Write([]byte{ctr})
		h.Write(b)
		sum := h.Sum(nil)
		// Widen to the order size by chained hashing.
		for len(sum) < 4*len(n) {
			h2 := sha256.New()
			h2.Write(sum)
			sum = append(sum, h2.Sum(nil)...)
		}
		d := mp.FromBytes(sum[:4*len(n)], len(n))
		// Clamp below n by clearing top bits.
		topBits := uint(n.BitLen() % 32)
		if topBits != 0 {
			d[(n.BitLen()-1)/32] &= (1 << topBits) - 1
			for i := (n.BitLen() + 31) / 32; i < len(d); i++ {
				d[i] = 0
			}
		}
		if !d.IsZero() && mp.Cmp(d, n) < 0 {
			return d
		}
		ctr++
	}
}

// signingNonce derives the deterministic (RFC-6979-style HMAC) nonce k
// for one signing attempt, so the workload is reproducible run to run.
// The derivation is the one deliberate per-family difference: prime
// curves HMAC e and rehash k‖attempt on a retry, binary curves HMAC
// e‖attempt. The nonce fixes the scalar and the scalar fixes the
// operation census, so merging the two would change every binary census.
func signingNonce[P, A any](curve ec.Curve[P, A], d, e, n mp.Int, attempt int) mp.Int {
	mac := hmac.New(sha256.New, d.Bytes())
	mac.Write(e.Bytes())
	if _, binary := any(curve).(*ec.BinaryCurve); binary {
		mac.Write([]byte{byte(attempt)})
		return hashToScalar(mac.Sum(nil), n)
	}
	k := hashToScalar(mac.Sum(nil), n)
	if attempt > 0 {
		k = hashToScalar(append(k.Bytes(), byte(attempt)), n)
	}
	return k
}

// hashToE truncates a message digest to the order's bit length (FIPS 186
// bits2int).
func hashToE(digest []byte, n mp.Int) mp.Int {
	nb := n.BitLen()
	e := mp.FromBytes(digest, len(n))
	// If the digest is longer than n, use the leftmost bits.
	db := 8 * len(digest)
	if db > nb {
		shift := db - nb
		for s := 0; s < shift; s++ {
			mp.Shr1(e, e)
		}
	}
	for mp.Cmp(e, n) >= 0 {
		mp.Sub(e, e, n)
	}
	return e
}

// reduceX returns x mod n for a coordinate x read as an integer, at n's
// width.
func reduceX(x, n mp.Int) mp.Int {
	r := mp.New(len(n))
	copy(r, x)
	for mp.Cmp(r, n) >= 0 {
		mp.Sub(r, r, n)
	}
	return r
}

// Sign produces an ECDSA signature over digest (already hashed message).
func Sign[P, A any](priv *PrivateKey[P, A], digest []byte) (*Signature, error) {
	return signWith(newOrderField(priv.Curve), priv, digest)
}

// SignBinary is Sign on a binary curve.
func SignBinary(priv *PrivateKey[*ec.LDPoint, *ec.BinaryAffinePoint], digest []byte) (*Signature, error) {
	return Sign(priv, digest)
}

// signWith is Sign with the caller-supplied group-order field (the
// profiler reads its counters afterwards).
func signWith[P, A any](of *mp.Field, priv *PrivateKey[P, A], digest []byte) (*Signature, error) {
	curve := priv.Curve
	n, _ := curve.Order()
	e := hashToE(digest, n)
	for attempt := 0; attempt < 64; attempt++ {
		k := signingNonce(curve, priv.D, e, n, attempt)
		// R = k*G; r = R.x mod n.
		x, _ := curve.AffineX(ec.ScalarMult(curve, k, curve.Generator()))
		r := reduceX(x, n)
		if r.IsZero() {
			continue
		}
		// s = k^-1 (e + r d) mod n — the "protocol arithmetic modulo
		// the group order" that stays on Pete (Section 4.1).
		rd := mp.New(of.K)
		of.Mul(rd, r, priv.D)
		s := mp.New(of.K)
		of.Add(s, rd, e)
		kinv := mp.New(of.K)
		of.Inv(kinv, k)
		of.Mul(s, s, kinv)
		if s.IsZero() {
			continue
		}
		return &Signature{R: r, S: s}, nil
	}
	return nil, errors.New("ecdsa: could not produce a signature")
}

// Verify checks an ECDSA signature over digest.
func Verify[P, A any](curve ec.Curve[P, A], pub A, digest []byte, sig *Signature) bool {
	return verifyWith(newOrderField(curve), curve, pub, digest, sig)
}

// VerifyBinary is Verify on a binary curve.
func VerifyBinary(curve *ec.BinaryCurve, pub *ec.BinaryAffinePoint, digest []byte, sig *Signature) bool {
	return Verify(curve, pub, digest, sig)
}

// verifyWith is Verify with the caller-supplied group-order field.
func verifyWith[P, A any](of *mp.Field, curve ec.Curve[P, A], pub A, digest []byte, sig *Signature) bool {
	n, _ := curve.Order()
	if sig.R.IsZero() || sig.S.IsZero() ||
		mp.Cmp(sig.R, n) >= 0 || mp.Cmp(sig.S, n) >= 0 {
		return false
	}
	// The order-field arithmetic needs operands of exactly n's word
	// count, which a signature made on a curve of another size lacks;
	// both are below n, so copying them to that width is exact.
	r, s := mp.New(len(n)), mp.New(len(n))
	copy(r, sig.R)
	copy(s, sig.S)
	e := hashToE(digest, n)
	w := mp.New(of.K)
	of.Inv(w, s)
	u1 := mp.New(of.K)
	of.Mul(u1, e, w)
	u2 := mp.New(of.K)
	of.Mul(u2, r, w)
	// X = u1*G + u2*Q via twin multiplication (Section 4.1).
	x, ok := curve.AffineX(ec.TwinMult(curve, u1, curve.Generator(), u2, pub))
	return ok && mp.Cmp(reduceX(x, n), r) == 0
}
