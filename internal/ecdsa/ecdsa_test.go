package ecdsa

import (
	"crypto/sha256"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
)

func digestOf(msg string) []byte {
	d := sha256.Sum256([]byte(msg))
	return d[:]
}

func TestSignVerifyAllPrimeCurves(t *testing.T) {
	for _, name := range ec.PrimeCurveNames {
		curve := ec.NISTPrimeCurve(name, mp.PSNIST)
		priv := GenerateKey(curve, []byte("seed-"+name))
		msg := digestOf("the quick brown fox " + name)
		sig, err := Sign(priv, msg)
		if err != nil {
			t.Fatalf("%s: sign failed: %v", name, err)
		}
		if !Verify(curve, priv.Q, msg, sig) {
			t.Errorf("%s: valid signature rejected", name)
		}
		// Tampered digest must fail.
		if Verify(curve, priv.Q, digestOf("tampered"), sig) {
			t.Errorf("%s: tampered digest accepted", name)
		}
		// Tampered r must fail.
		badR := sig.R.Clone()
		badR[0] ^= 1
		if Verify(curve, priv.Q, msg, &Signature{R: badR, S: sig.S}) {
			t.Errorf("%s: tampered r accepted", name)
		}
		// Tampered s must fail.
		badS := sig.S.Clone()
		badS[0] ^= 1
		if Verify(curve, priv.Q, msg, &Signature{R: sig.R, S: badS}) {
			t.Errorf("%s: tampered s accepted", name)
		}
	}
}

func TestSignVerifyAllBinaryCurves(t *testing.T) {
	for _, name := range ec.BinaryCurveNames {
		curve := ec.NISTBinaryCurve(name, gf2.CLMul)
		priv := GenerateKey(curve, []byte("seed-"+name))
		msg := digestOf("binary fox " + name)
		sig, err := Sign(priv, msg)
		if err != nil {
			t.Fatalf("%s: sign failed: %v", name, err)
		}
		if !Verify(curve, priv.Q, msg, sig) {
			t.Errorf("%s: valid signature rejected", name)
		}
		if Verify(curve, priv.Q, digestOf("tampered"), sig) {
			t.Errorf("%s: tampered digest accepted", name)
		}
	}
}

func TestCrossAlgConsistency(t *testing.T) {
	// Signatures are deterministic, so two field strategies must produce
	// identical signatures — the cross-check that the baseline, ISA-ext
	// and Monte software paths compute the same cryptography.
	var ref *Signature
	msg := digestOf("consistency")
	for _, alg := range []mp.MulAlg{mp.OSNIST, mp.PSNIST, mp.CIOS} {
		curve := ec.NISTPrimeCurve("P-256", alg)
		priv := GenerateKey(curve, []byte("same-seed"))
		sig, err := Sign(priv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sig
			continue
		}
		if mp.Cmp(sig.R, ref.R) != 0 || mp.Cmp(sig.S, ref.S) != 0 {
			t.Fatalf("alg %v produced a different signature", alg)
		}
	}
}

func TestBinaryCrossAlgConsistency(t *testing.T) {
	var ref *Signature
	msg := digestOf("bin-consistency")
	for _, alg := range []gf2.MulAlg{gf2.Comb, gf2.CLMul} {
		curve := ec.NISTBinaryCurve("B-163", alg)
		priv := GenerateKey(curve, []byte("same-seed"))
		sig, err := Sign(priv, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = sig
			continue
		}
		if mp.Cmp(sig.R, ref.R) != 0 || mp.Cmp(sig.S, ref.S) != 0 {
			t.Fatalf("alg %v produced a different signature", alg)
		}
	}
}

// p192 and b163 are the one-curve-per-family rows of the tests below
// that run the same body on both curve families.
func p192() *ec.PrimeCurve  { return ec.NISTPrimeCurve("P-192", mp.PSNIST) }
func b163() *ec.BinaryCurve { return ec.NISTBinaryCurve("B-163", gf2.CLMul) }

func TestVerifyRejectsBadInputs(t *testing.T) {
	t.Run("P-192", func(t *testing.T) { verifyRejectsBadInputs(t, p192()) })
	t.Run("B-163", func(t *testing.T) { verifyRejectsBadInputs(t, b163()) })
}

func verifyRejectsBadInputs[P, A any](t *testing.T, curve ec.Curve[P, A]) {
	priv := GenerateKey(curve, []byte("k"))
	msg := digestOf("m")
	sig, _ := Sign(priv, msg)
	zero := mp.New(len(sig.R))
	if Verify(curve, priv.Q, msg, &Signature{R: zero, S: sig.S}) {
		t.Error("r = 0 accepted")
	}
	if Verify(curve, priv.Q, msg, &Signature{R: sig.R, S: zero}) {
		t.Error("s = 0 accepted")
	}
	n, _ := curve.Order()
	if Verify(curve, priv.Q, msg, &Signature{R: n.Clone(), S: sig.S}) {
		t.Error("r = n accepted")
	}
	// Wrong public key.
	other := GenerateKey(curve, []byte("other"))
	if Verify(curve, other.Q, msg, sig) {
		t.Error("wrong public key accepted")
	}
}

func TestDeterministicSignatures(t *testing.T) {
	t.Run("P-192", func(t *testing.T) { deterministicSignatures(t, p192()) })
	t.Run("B-163", func(t *testing.T) { deterministicSignatures(t, b163()) })
}

func deterministicSignatures[P, A any](t *testing.T, curve ec.Curve[P, A]) {
	priv := GenerateKey(curve, []byte("det"))
	msg := digestOf("same message")
	s1, _ := Sign(priv, msg)
	s2, _ := Sign(priv, msg)
	if mp.Cmp(s1.R, s2.R) != 0 || mp.Cmp(s1.S, s2.S) != 0 {
		t.Error("signatures are not deterministic")
	}
	s3, _ := Sign(priv, digestOf("different message"))
	if mp.Cmp(s1.R, s3.R) == 0 {
		t.Error("different messages reused the nonce")
	}
}

func TestKeyGeneration(t *testing.T) {
	curve := ec.NISTPrimeCurve("P-192", mp.OSNIST)
	k1 := GenerateKey(curve, []byte("a"))
	k2 := GenerateKey(curve, []byte("b"))
	if mp.Cmp(k1.D, k2.D) == 0 {
		t.Error("different seeds produced the same key")
	}
	if !curve.OnCurve(k1.Q) || !curve.OnCurve(k2.Q) {
		t.Error("public key not on curve")
	}
	if k1.D.IsZero() || mp.Cmp(k1.D, curve.N) >= 0 {
		t.Error("private scalar out of range")
	}
}

func TestHashToE(t *testing.T) {
	curve := ec.NISTPrimeCurve("P-521", mp.OSNIST)
	// A 256-bit digest into a 521-bit order: no truncation needed.
	e := hashToE(digestOf("x"), curve.N)
	if e.BitLen() > 256 {
		t.Error("hashToE expanded the digest")
	}
	// A digest longer than the order: must truncate to leftmost bits.
	c192 := ec.NISTPrimeCurve("P-192", mp.OSNIST)
	e2 := hashToE(digestOf("y"), c192.N)
	if mp.Cmp(e2, c192.N) >= 0 {
		t.Error("hashToE out of range")
	}
}
