package dse

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestWorkloadAxisHashStability is the compatibility contract of the
// workload axis: configurations on the default Sign+Verify workload must
// keep the exact keys (and therefore hashes) they had before the axis
// existed, no matter how the default is spelled, so warm result caches
// and persisted stores keep serving them.
func TestWorkloadAxisHashStability(t *testing.T) {
	// The pre-workload-axis key format, pinned verbatim.
	legacy := Config{Arch: sim.WithMonte, Curve: "P-192", Opt: sim.Options{DoubleBuffer: true}}
	const wantKey = "arch=monte curve=P-192 cache=0 pf=false ideal=false db=true w=32 digit=0 gate=false"
	if got := legacy.Key(); got != wantKey {
		t.Fatalf("default-workload key changed:\n  got:  %s\n  want: %s", got, wantKey)
	}

	// "" and the explicit default name are the same canonical machine.
	named := legacy
	named.Opt.Workload = sim.WorkloadSignVerify
	if named.Key() != legacy.Key() || named.Hash() != legacy.Hash() {
		t.Errorf("explicit %q workload changed the key: %s", sim.WorkloadSignVerify, named.Key())
	}

	// A non-default workload is a different design point.
	ecdh := legacy
	ecdh.Opt.Workload = sim.WorkloadECDH
	if ecdh.Hash() == legacy.Hash() {
		t.Error("ecdh workload must hash differently from the default")
	}
	if ecdh.Key() != wantKey+" wl=ecdh" {
		t.Errorf("non-default workload key = %q", ecdh.Key())
	}
}

// TestWorkloadAxisNeverPerturbsDefaultHashes expands the same spec with
// the Workloads axis unset, with the axis naming only the default, and
// with extra workloads added, and asserts the default-workload subset
// enumerates to identical hashes every time — the determinism the shared
// and on-disk result caches rely on.
func TestWorkloadAxisNeverPerturbsDefaultHashes(t *testing.T) {
	base := smallSpec()

	defaultHashes := func(spec SweepSpec) []string {
		var out []string
		for _, cfg := range spec.Expand() {
			if cfg.Canonical().Opt.Workload == "" {
				out = append(out, cfg.Hash())
			}
		}
		return out
	}

	want := defaultHashes(base)
	if len(want) == 0 {
		t.Fatal("spec expanded to no default-workload configs")
	}

	explicit := base
	explicit.Workloads = []string{sim.WorkloadSignVerify}
	widened := base
	widened.Workloads = []string{sim.WorkloadSignVerify, sim.WorkloadECDH, sim.WorkloadHandshake}

	for name, spec := range map[string]SweepSpec{"explicit-default": explicit, "widened": widened} {
		got := defaultHashes(spec)
		if len(got) != len(want) {
			t.Fatalf("%s: %d default-workload configs, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: hash %d differs: %s vs %s", name, i, got[i], want[i])
			}
		}
	}

	// The widened spec multiplies the space by the workload axis.
	if got, want := len(widened.Expand()), 3*len(base.Expand()); got != want {
		t.Errorf("widened spec = %d configs, want %d", got, want)
	}
	if widened.RawPoints() != 3*base.RawPoints() {
		t.Errorf("RawPoints did not pick up the workload axis: %d vs %d",
			widened.RawPoints(), base.RawPoints())
	}
}

// TestWorkloadSweepValidation rejects unknown workload names before any
// simulation runs.
func TestWorkloadSweepValidation(t *testing.T) {
	spec := SweepSpec{
		Archs:     []sim.Arch{sim.Baseline},
		Curves:    []string{"P-192"},
		Workloads: []string{"tls13"},
	}
	if _, err := Sweep(spec, SweepOptions{Cache: NewCache()}); err == nil {
		t.Error("unknown workload should fail validation")
	}
}

// TestWorkloadSweepPoints runs a real two-workload sweep and checks the
// per-point results carry their workload's phases.
func TestWorkloadSweepPoints(t *testing.T) {
	spec := SweepSpec{
		Archs:     []sim.Arch{sim.Baseline},
		Curves:    []string{"P-192"},
		Workloads: []string{sim.WorkloadSignVerify, sim.WorkloadHandshake},
	}
	res, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(res.Points))
	}
	sv, hs := res.Points[0], res.Points[1]
	if len(sv.Result.Phases) != 2 || len(hs.Result.Phases) != 4 {
		t.Errorf("phase counts = %d/%d, want 2/4", len(sv.Result.Phases), len(hs.Result.Phases))
	}
	if hs.EnergyJ <= sv.EnergyJ || hs.TimeS <= sv.TimeS {
		t.Error("handshake must cost more than Sign+Verify on the same design")
	}
	// Wire form: default workload omits phases and the workload tag,
	// non-default carries both.
	svJSON, hsJSON := sv.ToJSON(), hs.ToJSON()
	if svJSON.Workload != "" || svJSON.Phases != nil {
		t.Errorf("default workload wire form must stay legacy-shaped: %+v", svJSON)
	}
	if hsJSON.Workload != sim.WorkloadHandshake || len(hsJSON.Phases) != 4 {
		t.Errorf("handshake wire form missing workload/phases: %+v", hsJSON)
	}
}

// TestSweepProgress pins the progress-streaming contract, now carried
// by the journal's point events: one event per configuration, in
// deterministic specification order, with i counting 1..total for any
// worker count, none cached cold and all cached on a warm re-sweep
// from the in-memory cache.
func TestSweepProgress(t *testing.T) {
	spec := smallSpec()
	cfgs := spec.Expand()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			cache := NewCache()
			var cold bytes.Buffer
			if _, err := Sweep(spec, SweepOptions{Workers: workers, Cache: cache,
				Journal: telemetry.NewJournal(&cold)}); err != nil {
				t.Fatal(err)
			}
			checkPointEvents(t, journalLines(t, &cold), cfgs, false)

			// A warm re-sweep streams every point as cached.
			var warm bytes.Buffer
			if _, err := Sweep(spec, SweepOptions{Workers: workers, Cache: cache,
				Journal: telemetry.NewJournal(&warm)}); err != nil {
				t.Fatal(err)
			}
			checkPointEvents(t, journalLines(t, &warm), cfgs, true)
		})
	}
}
