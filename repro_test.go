package repro

import (
	"crypto/sha256"
	"strings"
	"testing"
)

func TestPublicAPISignVerify(t *testing.T) {
	for _, name := range CurveNames() {
		c, err := NewCurve(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("Name() = %q", c.Name())
		}
		key := c.GenerateKey([]byte("api-test-" + name))
		d := sha256.Sum256([]byte("hello " + name))
		sig, err := key.Sign(d[:])
		if err != nil {
			t.Fatalf("%s: sign: %v", name, err)
		}
		if sig.R == "" || sig.S == "" {
			t.Errorf("%s: empty signature fields", name)
		}
		if !key.Verify(d[:], sig) {
			t.Errorf("%s: verification failed", name)
		}
		bad := sha256.Sum256([]byte("tampered"))
		if key.Verify(bad[:], sig) {
			t.Errorf("%s: tampered digest accepted", name)
		}
	}
}

func TestCurveMetadata(t *testing.T) {
	p, _ := NewCurve("P-256")
	b, _ := NewCurve("B-283")
	if p.IsBinary() || !b.IsBinary() {
		t.Error("IsBinary wrong")
	}
	if p.SecurityBits() != 128 {
		t.Errorf("P-256 security = %d, want 128", p.SecurityBits())
	}
	if _, err := NewCurve("P-999"); err == nil {
		t.Error("unknown curve should error")
	}
}

func TestVerifyNilSignature(t *testing.T) {
	c, _ := NewCurve("P-192")
	k := c.GenerateKey([]byte("x"))
	d := sha256.Sum256([]byte("m"))
	if k.Verify(d[:], nil) {
		t.Error("nil signature accepted")
	}
}

// A signature made on a curve of another size must be rejected, not
// panic, whether its words are fewer or more than the key's order has.
func TestVerifyCrossSizeSignature(t *testing.T) {
	d := sha256.Sum256([]byte("cross-size"))
	for _, pair := range [][2]string{
		{"P-192", "P-521"}, {"P-521", "P-192"}, {"B-163", "B-571"}, {"B-571", "B-163"},
	} {
		signer, _ := NewCurve(pair[0])
		verifier, _ := NewCurve(pair[1])
		sig, err := signer.GenerateKey([]byte("signer")).Sign(d[:])
		if err != nil {
			t.Fatalf("%s: sign: %v", pair[0], err)
		}
		if verifier.GenerateKey([]byte("verifier")).Verify(d[:], sig) {
			t.Errorf("%s signature accepted by a %s key", pair[0], pair[1])
		}
	}
}

func TestSimulateAllConfigs(t *testing.T) {
	opt := DefaultOptions()
	cases := []struct {
		arch  Architecture
		curve string
	}{
		{ArchBaseline, "P-192"},
		{ArchISAExt, "P-384"},
		{ArchISAExtCache, "P-256"},
		{ArchMonte, "P-521"},
		{ArchBaseline, "B-233"},
		{ArchISAExt, "B-409"},
		{ArchBillie, "B-163"},
	}
	for _, c := range cases {
		r, err := Simulate(c.arch, c.curve, opt)
		if err != nil {
			t.Fatalf("%v/%s: %v", c.arch, c.curve, err)
		}
		if r.TotalCycles() == 0 || r.TotalEnergy() <= 0 {
			t.Errorf("%v/%s: degenerate result", c.arch, c.curve)
		}
	}
	if _, err := Simulate(ArchBillie, "P-192", opt); err == nil {
		t.Error("Billie on a prime curve should error")
	}
}

func TestExperimentAPI(t *testing.T) {
	names := ExperimentNames()
	if len(names) < 20 {
		t.Fatalf("expected >= 20 experiments, got %d", len(names))
	}
	out, err := Experiment("table7.5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Cortex-M3") {
		t.Error("table7.5 content wrong")
	}
	if _, err := Experiment("nope"); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestWorkloadAPI(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 4 || names[0] != WorkloadSignVerify {
		t.Fatalf("WorkloadNames() = %v", names)
	}
	opt := DefaultOptions()
	opt.Workload = WorkloadHandshake
	r, err := Simulate(ArchMonte, "P-256", opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workload != WorkloadHandshake || len(r.Phases) != 4 {
		t.Errorf("handshake result malformed: workload=%q phases=%d", r.Workload, len(r.Phases))
	}
	sv, err := Simulate(ArchMonte, "P-256", DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalEnergy() <= sv.TotalEnergy() {
		t.Error("handshake should cost more than Sign+Verify")
	}
	opt.Workload = "nope"
	if _, err := Simulate(ArchBaseline, "P-192", opt); err == nil {
		t.Error("unknown workload should error")
	}

	// The workload axis is sweepable through the public surface too.
	spec := SweepSpec{
		Archs:     []Architecture{ArchBaseline},
		Curves:    []string{"P-192"},
		Workloads: []string{WorkloadKeyGen, WorkloadECDH},
	}
	res, err := Sweep(spec, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Errorf("workload sweep produced %d points, want 2", len(res.Points))
	}
}

func TestAccelerationOrdering(t *testing.T) {
	// The public API must reproduce the paper's headline ordering:
	// baseline > isa-ext > isa-ext+cache > monte in energy.
	opt := DefaultOptions()
	var last float64
	for i, a := range []Architecture{ArchBaseline, ArchISAExt, ArchISAExtCache, ArchMonte} {
		r, err := Simulate(a, "P-256", opt)
		if err != nil {
			t.Fatal(err)
		}
		e := r.TotalEnergy()
		if i > 0 && e >= last {
			t.Errorf("%v should use less energy than the previous config (%.2f >= %.2f uJ)",
				a, e*1e6, last*1e6)
		}
		last = e
	}
}
