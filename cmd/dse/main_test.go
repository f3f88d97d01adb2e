package main

import (
	"strings"
	"testing"
)

// TestConflictError pins every flag-coherence rejection (and the
// combinations that must pass) so a refactor cannot silently start
// dropping a flag on the floor again.
func TestConflictError(t *testing.T) {
	cases := []struct {
		name string
		in   cliFlags
		want string // substring of the message; "" = coherent
	}{
		// Mode exclusivity, including the original -sweep -arch trap.
		{"sweep+arch", cliFlags{sweep: true, arch: "monte"}, "conflicting modes"},
		{"all+exp", cliFlags{all: true, exp: "fig7.1"}, "conflicting modes"},
		{"list+sweep", cliFlags{list: true, sweep: true}, "conflicting modes"},

		// Flags another mode would silently ignore.
		{"workload+all", cliFlags{all: true, workload: "ecdh"}, "-workload applies to -arch runs and -sweep"},
		{"axis-flag+sweep", cliFlags{sweep: true, axisFlags: []string{"cache"}}, "-cache applies to -arch runs only"},
		{"curves-no-sweep", cliFlags{arch: "monte", curves: "P-192"}, "-curves applies to -sweep only"},
		{"json-no-sweep", cliFlags{arch: "monte", jsonOut: true}, "apply to -sweep only"},
		{"stats-alone", cliFlags{stats: true}, "-stats applies to -sweep and -arch runs only"},
		{"trace-alone", cliFlags{traceFile: "t.jsonl"}, "-trace and -cache-dir apply to -sweep only"},
		{"cache-dir-alone", cliFlags{cacheDir: ".dse"}, "-trace and -cache-dir apply to -sweep only"},

		// Adaptive exploration: needs -sweep, and the budget knob is
		// meaningless without it.
		{"adaptive-no-sweep", cliFlags{adaptive: true}, "-adaptive applies to -sweep only"},
		{"adaptive-with-arch", cliFlags{arch: "monte", adaptive: true}, "-adaptive applies to -sweep only"},
		{"budget-no-adaptive", cliFlags{sweep: true, adaptiveBudget: 100}, "-adaptive-budget applies to -sweep -adaptive only"},

		// Coherent combinations must stay accepted.
		{"plain-sweep", cliFlags{sweep: true}, ""},
		{"sweep-adaptive", cliFlags{sweep: true, adaptive: true}, ""},
		{"sweep-adaptive-budget", cliFlags{sweep: true, adaptive: true, adaptiveBudget: 100}, ""},
		{"sweep-adaptive-full", cliFlags{sweep: true, adaptive: true, jsonOut: true, pareto: true, stats: true, cacheDir: ".dse"}, ""},
		{"sweep-cache-dir", cliFlags{sweep: true, cacheDir: ".dse", traceFile: "t.jsonl"}, ""},
		{"arch-run", cliFlags{arch: "monte", workload: "ecdh", stats: true}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := conflictError(c.in)
			if c.want == "" {
				if got != "" {
					t.Fatalf("conflictError(%+v) = %q, want coherent", c.in, got)
				}
				return
			}
			if !strings.Contains(got, c.want) {
				t.Fatalf("conflictError(%+v) = %q, want message naming %q", c.in, got, c.want)
			}
		})
	}
}
