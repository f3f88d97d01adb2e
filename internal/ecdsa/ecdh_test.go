package ecdsa

import (
	"bytes"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
)

func TestECDHAgreement(t *testing.T) {
	for _, name := range []string{"P-192", "P-256", "P-521"} {
		curve := ec.NISTPrimeCurve(name, mp.PSNIST)
		alice := GenerateKey(curve, []byte("alice-"+name))
		bob := GenerateKey(curve, []byte("bob-"+name))
		k1, err := ECDH(alice, bob.Q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k2, err := ECDH(bob, alice.Q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(k1, k2) {
			t.Errorf("%s: shared keys disagree", name)
		}
		eve := GenerateKey(curve, []byte("eve-"+name))
		k3, _ := ECDH(eve, bob.Q)
		if bytes.Equal(k1, k3) {
			t.Errorf("%s: eavesdropper derived the session key", name)
		}
	}
}

func TestECDHBinaryAgreement(t *testing.T) {
	for _, name := range []string{"B-163", "B-283"} {
		curve := ec.NISTBinaryCurve(name, gf2.CLMul)
		alice := GenerateKey(curve, []byte("alice-"+name))
		bob := GenerateKey(curve, []byte("bob-"+name))
		k1, err := ECDH(alice, bob.Q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k2, err := ECDH(bob, alice.Q)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(k1, k2) {
			t.Errorf("%s: shared keys disagree", name)
		}
	}
}

func TestECDHRejectsInvalidPeer(t *testing.T) {
	// x = y = 1 is on neither P-192 nor B-163.
	t.Run("P-192", func(t *testing.T) {
		c := p192()
		ecdhRejectsInvalidPeer(t, c, &ec.AffinePoint{X: c.F.One.Clone(), Y: c.F.One.Clone()})
	})
	t.Run("B-163", func(t *testing.T) {
		c := b163()
		ecdhRejectsInvalidPeer(t, c, &ec.BinaryAffinePoint{X: c.F.One.Clone(), Y: c.F.One.Clone()})
	})
}

func ecdhRejectsInvalidPeer[P, A any](t *testing.T, curve ec.Curve[P, A], offCurve A) {
	priv := GenerateKey(curve, []byte("k"))
	if _, err := ECDH(priv, offCurve); err == nil {
		t.Error("off-curve peer accepted")
	}
	if _, err := ECDH(priv, curve.ToAffine(curve.Infinity())); err == nil {
		t.Error("point at infinity accepted")
	}
}

func TestECDHProfileCountsOps(t *testing.T) {
	t.Run("P-192", func(t *testing.T) { ecdhProfileCountsOps(t, p192()) })
	t.Run("B-163", func(t *testing.T) { ecdhProfileCountsOps(t, b163()) })
}

func ecdhProfileCountsOps[P, A any](t *testing.T, curve ec.Curve[P, A]) {
	alice := GenerateKey(curve, []byte("a"))
	bob := GenerateKey(curve, []byte("b"))
	key, prof, err := ECDHProfile(alice, bob.Q)
	if err != nil {
		t.Fatal(err)
	}
	if peerKey, err := ECDH(bob, alice.Q); err != nil || !bytes.Equal(key, peerKey) {
		t.Errorf("profiled ECDH key disagrees with the peer's side (err=%v)", err)
	}
	if prof.Field.Mul == 0 || prof.Point.Dbl == 0 {
		t.Errorf("profile did not capture the scalar multiplication: %+v", prof)
	}
	// One key agreement ~ one scalar multiplication: roughly nbits
	// doublings.
	_, nbits := curve.Order()
	if prof.Point.Dbl < uint64(nbits)-10 || prof.Point.Dbl > uint64(nbits)+10 {
		t.Errorf("doubling count %d far from %d", prof.Point.Dbl, nbits)
	}
}
