package sim

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/ec"
	"repro/internal/ecdsa"
)

// A workload is a named list of profiled phases. Each phase executes a
// real, functionally-verified cryptographic operation (the signature
// really verifies, the two ECDH sides really agree) while its exact
// operation census is recorded; the simulator then prices every phase
// through the same census → cycles/events → cache/energy pipeline. The
// paper evaluates a single scenario — one ECDSA signature plus one
// verification — but the design-space conclusions shift with the workload
// mix, so the scenario is a first-class axis here.

// Workload names accepted by Options.Workload and the dse Workloads axis.
const (
	// WorkloadSignVerify is the paper's evaluation scenario: one ECDSA
	// signature plus one verification (the default).
	WorkloadSignVerify = "sign-verify"
	// WorkloadKeyGen is one deterministic key generation — a single
	// scalar base multiplication (Section 4.3's bare-metal key setup).
	WorkloadKeyGen = "keygen"
	// WorkloadECDH is one Diffie-Hellman key agreement: a peer-key curve
	// check plus one scalar multiplication — the "session key
	// establishment" scenario the paper's introduction motivates.
	WorkloadECDH = "ecdh"
	// WorkloadHandshake is the full WSN mutual-authentication handshake:
	// key generation, ECDH key agreement, then one signature and one
	// verification over the transcript digest.
	WorkloadHandshake = "handshake"
)

// Phase names, as recorded in Result.Phases.
const (
	PhaseKeyGen = "keygen"
	PhaseECDH   = "ecdh"
	PhaseSign   = "sign"
	PhaseVerify = "verify"
)

// workloadDef names a workload's phases, in the order they are priced.
type workloadDef struct {
	name   string
	phases []string
}

// workloadDefs lists the shipped workloads in canonical presentation
// order (the default first).
var workloadDefs = []workloadDef{
	{WorkloadSignVerify, []string{PhaseSign, PhaseVerify}},
	{WorkloadKeyGen, []string{PhaseKeyGen}},
	{WorkloadECDH, []string{PhaseECDH}},
	{WorkloadHandshake, []string{PhaseKeyGen, PhaseECDH, PhaseSign, PhaseVerify}},
}

// Workloads lists the known workload names, default first.
func Workloads() []string {
	out := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		out[i] = w.name
	}
	return out
}

// KnownWorkload reports whether name is a shipped workload ("" means the
// default Sign+Verify scenario).
func KnownWorkload(name string) bool {
	_, ok := workloadByName(name)
	return ok
}

// CanonicalWorkload maps "" to the default workload name and leaves every
// other name untouched.
func CanonicalWorkload(name string) string {
	if name == "" {
		return WorkloadSignVerify
	}
	return name
}

func workloadByName(name string) (workloadDef, bool) {
	name = CanonicalWorkload(name)
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// profiledPhase is one executed, profiled workload phase awaiting pricing.
// Its census is family-neutral, so a single pricing path serves both
// curve families.
type profiledPhase struct {
	name   string
	census ecdsa.OpProfile
}

// pick selects the workload's phases, in workload order, from a curve's
// profile run.
func (w workloadDef) pick(all []profiledPhase) []profiledPhase {
	out := make([]profiledPhase, 0, len(w.phases))
	for _, name := range w.phases {
		for _, p := range all {
			if p.name == name {
				out = append(out, p)
			}
		}
	}
	return out
}

// profileCurve executes every phase once, functionally, on the named
// curve and returns their censuses: key generation, ECDH against the
// fixed peer key, then a signature and its verification under the
// generated key. The run is deterministic, so it serves every workload.
func profileCurve[P, A any](curve ec.Curve[P, A], curveName string) ([]profiledPhase, error) {
	reg := metrics()
	phases := make([]profiledPhase, 0, 4)
	start := time.Now()
	record := func(name string, census ecdsa.OpProfile) {
		if reg != nil {
			reg.Histogram("sim.profile." + name).Observe(time.Since(start))
		}
		phases = append(phases, profiledPhase{name: name, census: census})
		start = time.Now()
	}

	priv, census := ecdsa.ProfileKeyGen(curve, []byte("sim-key-"+curveName))
	record(PhaseKeyGen, census)

	// The peer's half runs un-profiled first: only the device side is
	// priced, but both sides must really agree.
	peer := ecdsa.GenerateKey(curve, []byte("sim-peer-"+curveName))
	peerKey, err := ecdsa.ECDH(peer, priv.Q)
	if err != nil {
		return nil, err
	}
	key, census, err := ecdsa.ECDHProfile(priv, peer.Q)
	if err != nil {
		return nil, err
	}
	if string(key) != string(peerKey) {
		return nil, fmt.Errorf("sim: ECDH sides disagree on %s", curveName)
	}
	record(PhaseECDH, census)

	sig, census, err := ecdsa.ProfileSign(priv, digest())
	if err != nil {
		return nil, err
	}
	record(PhaseSign, census)

	ok, census := ecdsa.ProfileVerify(curve, priv.Q, digest(), sig)
	if !ok {
		return nil, fmt.Errorf("sim: functional verification failed on %s", curveName)
	}
	record(PhaseVerify, census)
	return phases, nil
}

// workloadNamesForError renders the known names for error messages.
func workloadNamesForError() string { return strings.Join(Workloads(), ", ") }
