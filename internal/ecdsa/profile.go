package ecdsa

import (
	"repro/internal/ec"
	"repro/internal/mp"
)

// OpProfile is the exact operation census of one ECDSA operation: how many
// curve-field operations, point operations, and group-order ("protocol")
// operations ran. The simulation layer prices these counts with the
// per-operation cycle costs measured on the Pete simulator or on the
// accelerator models — the hierarchical methodology of Figure 4.1.
//
// Each profiled operation uses a private group-order field, so profiling
// is safe to run concurrently as long as each goroutine uses its own
// curve instance (the curve's field counters are per-instance state).
type OpProfile struct {
	Field ec.FieldOps        // curve-field ops
	Order mp.OpCounters      // arithmetic modulo the group order
	Point ec.PointOpCounters // point doubles/adds
}

// profileOf snapshots the curve's counters, plus the order field's when
// the operation used one.
func profileOf[P, A any](curve ec.Curve[P, A], of *mp.Field) OpProfile {
	var p OpProfile
	p.Field, p.Point = curve.OpCounts()
	if of != nil {
		p.Order = of.Counters
	}
	return p
}

// ProfileKeyGen runs GenerateKey while recording the operation census —
// one scalar base multiplication plus the deterministic seed hashing
// (which contributes no field operations).
func ProfileKeyGen[P, A any](curve ec.Curve[P, A], seed []byte) (*PrivateKey[P, A], OpProfile) {
	curve.ResetOpCounts()
	priv := GenerateKey(curve, seed)
	return priv, profileOf(curve, nil)
}

// ProfileSign runs Sign while recording the operation census.
func ProfileSign[P, A any](priv *PrivateKey[P, A], digest []byte) (*Signature, OpProfile, error) {
	priv.Curve.ResetOpCounts()
	of := newOrderField(priv.Curve)
	sig, err := signWith(of, priv, digest)
	return sig, profileOf(priv.Curve, of), err
}

// ProfileVerify runs Verify while recording the operation census.
func ProfileVerify[P, A any](curve ec.Curve[P, A], pub A, digest []byte, sig *Signature) (bool, OpProfile) {
	curve.ResetOpCounts()
	of := newOrderField(curve)
	ok := verifyWith(of, curve, pub, digest, sig)
	return ok, profileOf(curve, of)
}
