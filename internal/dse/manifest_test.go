package dse

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata/ (FullSweep manifest, CLI surface)")

// manifestPath is the checked-in FullSweep hash manifest: one line per
// expanded configuration, "<hash>  <canonical key>", in specification
// order.
const manifestPath = "testdata/fullsweep.keys.golden"

// fullSweepManifest renders the manifest for the current registry.
func fullSweepManifest() string {
	var b strings.Builder
	for _, c := range FullSweep().Expand() {
		fmt.Fprintf(&b, "%s  %s\n", c.Hash(), c.Key())
	}
	return b.String()
}

// TestFullSweepManifest pins every canonical key and config hash of the
// full design-space grid against the checked-in manifest. The hashes are
// the disk-store keys: a canonicalization or
// key-format change that perturbs them would silently cold-start every
// persistent cache and orphan every stored result, so it must fail here
// loudly instead. Regenerate with
//
//	go test ./internal/dse/ -run TestFullSweepManifest -update
//
// and review the diff: lines *added* for a new axis are expected; lines
// *changed or removed* mean existing hashes moved — a breaking change
// that needs a deliberate disk-format version bump.
func TestFullSweepManifest(t *testing.T) {
	got := fullSweepManifest()
	if *update {
		if err := os.MkdirAll(filepath.Dir(manifestPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(manifestPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d configs)", manifestPath, strings.Count(got, "\n"))
		return
	}
	wantBytes, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatalf("missing manifest golden (regenerate with -update): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}

	// Diagnose the damage precisely: a moved hash is a cache-busting
	// break, a reordered or added line is merely a grid change.
	gotKeys, wantKeys := manifestByKey(t, got), manifestByKey(t, want)
	for key, h := range wantKeys {
		switch got, ok := gotKeys[key]; {
		case !ok:
			t.Errorf("config dropped from FullSweep: %s", key)
		case got != h:
			t.Errorf("HASH MOVED for %s: %s -> %s (every disk store breaks)",
				key, h[:12], got[:12])
		}
	}
	for key := range gotKeys {
		if _, ok := wantKeys[key]; !ok {
			t.Errorf("config not in manifest golden (new axis value? regenerate with -update): %s", key)
		}
	}
	if len(gotKeys) == len(wantKeys) {
		// Same set, same hashes, different bytes: ordering changed.
		t.Errorf("manifest bytes differ but key set is unchanged: expansion order moved (regenerate with -update if intended)")
	}
}

// manifestByKey parses "<hash>  <key>" lines into key -> hash.
func manifestByKey(t *testing.T, s string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		hash, key, ok := strings.Cut(line, "  ")
		if !ok {
			t.Fatalf("malformed manifest line %q", line)
		}
		out[key] = hash
	}
	return out
}
