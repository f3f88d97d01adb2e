package ecdsa

import (
	"crypto/sha256"
	"errors"

	"repro/internal/ec"
)

// Elliptic-curve Diffie-Hellman — the "session key establishment for
// secure communications" use the paper's introduction motivates: a single
// scalar point multiplication per side, after which traffic switches to
// symmetric encryption (Section 2.1.1's amortization argument).

// ECDH computes the shared secret d·Q and derives a 256-bit session key
// from the fixed-width big-endian encoding of the shared x-coordinate.
func ECDH[P, A any](priv *PrivateKey[P, A], peer A) ([]byte, error) {
	curve := priv.Curve
	if _, ok := curve.AffineX(peer); !ok || !curve.OnCurve(peer) {
		return nil, errors.New("ecdh: peer public key not on curve")
	}
	x, ok := curve.AffineX(ec.ScalarMult(curve, priv.D, peer))
	if !ok {
		return nil, errors.New("ecdh: degenerate shared point")
	}
	key := sha256.Sum256(x.Bytes())
	return key[:], nil
}

// ECDHProfile runs ECDH while recording the operation census of one key
// agreement (one scalar multiplication plus the peer-key curve check),
// returning the derived session key so callers can cross-check agreement
// with the peer's side.
func ECDHProfile[P, A any](priv *PrivateKey[P, A], peer A) ([]byte, OpProfile, error) {
	priv.Curve.ResetOpCounts()
	key, err := ECDH(priv, peer)
	if err != nil {
		return nil, OpProfile{}, err
	}
	return key, profileOf(priv.Curve, nil), nil
}
