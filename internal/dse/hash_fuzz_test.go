package dse

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fuzzConfig maps raw fuzz inputs onto a Config. Out-of-range raw values
// are folded into the modeled sets so the fuzzer explores the real
// design space (plus zero values, which exercise the canonical
// defaulting paths).
func fuzzConfig(arch, curve, cacheKB, width, digit int, pf, ideal, db, gate bool) Config {
	archs := []sim.Arch{sim.Baseline, sim.ISAExt, sim.ISAExtCache, sim.WithMonte,
		sim.WithBillie, sim.BaselineCache, sim.MonteCache}
	curves := AllCurves()
	widths := []int{0, 8, 16, 32, 64}
	mod := func(v, n int) int {
		v %= n
		if v < 0 {
			v += n
		}
		return v
	}
	return Config{
		Arch:  archs[mod(arch, len(archs))],
		Curve: curves[mod(curve, len(curves))],
		Opt: sim.Options{
			CacheBytes:    mod(cacheKB, 65) * 1024, // 0..64 KB
			Prefetch:      pf,
			IdealCache:    ideal,
			DoubleBuffer:  db,
			MonteWidth:    widths[mod(width, len(widths))],
			BillieDigit:   mod(digit, 9), // 0..8
			GateAccelIdle: gate,
		},
	}
}

// FuzzConfigHash proves the two properties the result cache (and its
// on-disk form) depend on: distinct canonical configurations never share
// a key or hash, and the hash is insensitive to how the config was
// assembled — any two configs that canonicalize to the same physical
// machine hash identically, no matter which irrelevant knobs differ.
func FuzzConfigHash(f *testing.F) {
	// Seed the corpus with the interesting boundary shapes: identical
	// configs, configs differing only in an irrelevant knob, configs
	// differing in exactly one relevant knob, and zero-value defaults.
	f.Add(0, 0, 4, 3, 3, false, false, true, false, 0, 0, 4, 3, 3, false, false, true, false)
	f.Add(3, 0, 4, 3, 3, false, false, true, false, 3, 0, 4, 1, 3, false, false, true, false) // Monte width differs
	f.Add(4, 5, 4, 3, 2, false, false, true, false, 4, 5, 4, 3, 5, false, false, true, false) // Billie digit differs
	f.Add(0, 0, 1, 3, 3, true, false, true, true, 0, 0, 8, 3, 3, false, true, false, false)   // all knobs irrelevant on baseline
	f.Add(2, 3, 2, 0, 0, true, true, false, false, 2, 3, 2, 0, 0, true, false, false, false)  // ideal cache folds prefetch
	f.Add(6, 1, 4, 2, 0, false, false, true, true, 6, 1, 4, 2, 0, false, false, false, true)  // monte+icache, db differs
	f.Add(0, 0, 0, 0, 0, false, false, false, false, 1, 9, 64, 4, 8, true, true, true, true)  // zero values vs extremes

	f.Fuzz(func(t *testing.T,
		a1, c1, k1, w1, d1 int, pf1, id1, db1, g1 bool,
		a2, c2, k2, w2, d2 int, pf2, id2, db2, g2 bool) {
		cfg1 := fuzzConfig(a1, c1, k1, w1, d1, pf1, id1, db1, g1)
		cfg2 := fuzzConfig(a2, c2, k2, w2, d2, pf2, id2, db2, g2)

		key1, key2 := cfg1.Key(), cfg2.Key()
		h1, h2 := cfg1.Hash(), cfg2.Hash()

		// Same canonical machine ⟺ same key ⟺ same hash. The left
		// equivalence is what makes the hash insensitive to irrelevant
		// field settings; the right one is collision-freedom (a SHA-256
		// collision would be a find in itself).
		same := cfg1.Canonical() == cfg2.Canonical()
		if same != (key1 == key2) {
			t.Errorf("canonical equality %v but key equality %v:\n  %s\n  %s",
				same, key1 == key2, key1, key2)
		}
		if (key1 == key2) != (h1 == h2) {
			t.Errorf("key equality %v but hash equality %v:\n  %s\n  %s",
				key1 == key2, h1 == h2, key1, key2)
		}

		// Canonicalization is idempotent, and the key/hash are already
		// canonical: re-canonicalizing must not change them.
		if cc := cfg1.Canonical(); cc.Canonical() != cc {
			t.Errorf("Canonical not idempotent for %s", key1)
		}
		if cfg1.Canonical().Key() != key1 || cfg1.Canonical().Hash() != h1 {
			t.Errorf("key/hash differ after canonicalization for %s", key1)
		}

		// The registry-driven Key must reproduce the PR-4-era
		// hand-written rendering byte for byte: these strings are what
		// every existing config hash — and therefore every disk store —
		// was computed from. The corpus predates
		// the line axis, so fuzzConfig never sets it and the legacy
		// format needs no line token.
		if legacy := legacyKey(cfg1); key1 != legacy {
			t.Errorf("registry key diverges from legacy rendering:\n  registry: %s\n  legacy:   %s",
				key1, legacy)
		}
	})
}

// legacyKey is the hand-written Key rendering as it existed before the
// axis registry (PR 4), kept verbatim as the fuzz oracle.
func legacyKey(c Config) string {
	cc := c.Canonical()
	key := fmt.Sprintf("arch=%s curve=%s cache=%d pf=%t ideal=%t db=%t w=%d digit=%d gate=%t",
		cc.Arch, cc.Curve, cc.Opt.CacheBytes, cc.Opt.Prefetch, cc.Opt.IdealCache,
		cc.Opt.DoubleBuffer, cc.Opt.MonteWidth, cc.Opt.BillieDigit, cc.Opt.GateAccelIdle)
	if cc.Opt.Workload != "" {
		key += " wl=" + cc.Opt.Workload
	}
	return key
}
