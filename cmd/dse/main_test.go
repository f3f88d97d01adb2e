package main

import (
	"flag"
	"slices"
	"strings"
	"testing"

	"repro"
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
		{"curve+sweep", cliFlags{sweep: true, axisFlags: []string{"curve"}}, "-curve applies to -arch runs only; -sweep explores the full axis grid (use -curves/-workload to subset it)"},
		{"curve+all", cliFlags{all: true, axisFlags: []string{"curve"}}, "-curve applies to -arch runs only"},
		{"negative-workers", cliFlags{sweep: true, workers: -3}, "-workers -3: want a non-negative pool width"},
		{"negative-budget", cliFlags{sweep: true, adaptive: true, adaptiveBudget: -5}, "-adaptive-budget -5: want a non-negative configuration count"},
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

// TestRunOnlyFlags pins which explicitly set flags count as single-run
// flags: -curve and the option knobs do, -workload (the sweep's
// scenario list) and unset flags do not.
func TestRunOnlyFlags(t *testing.T) {
	cases := []struct {
		args []string
		want []string
	}{
		{nil, nil},
		{[]string{"-curve", "B-163"}, []string{"curve"}},
		{[]string{"-workload", "ecdh"}, nil},
		{[]string{"-width", "16", "-curve", "P-256", "-workload", "ecdh"}, []string{"curve", "width"}},
	}
	for _, c := range cases {
		fs := flag.NewFlagSet("dse", flag.ContinueOnError)
		repro.RegisterDimensionFlags(fs)
		repro.RegisterAxisFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		if got := runOnlyFlags(fs); !slices.Equal(got, c.want) {
			t.Errorf("runOnlyFlags(%q) = %q, want %q", c.args, got, c.want)
		}
	}
}

// TestZeroAxisFlags pins the rejection of an explicit 0 for a knob
// whose modeled range excludes it: Simulate reads 0 as unset, so the run
// would silently price the default instead. The message is the one a
// negative value gets, naming the flag; -line 0 is the default line and
// stays accepted.
func TestZeroAxisFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the error; "" = accepted
	}{
		{"digit", []string{"-digit", "0"}, "-digit 0: Billie digit size 0 out of modeled range [1, 8]"},
		{"width", []string{"-width", "0"}, "-width 0: Monte datapath width 0 not a synthesized configuration"},
		{"cache", []string{"-cache", "0"}, "-cache 0: cache size 0 out of modeled range [256, 65536]"},
		{"zero-after-valid", []string{"-width", "16", "-digit", "0"}, "-digit 0:"},

		{"unset", nil, ""},
		{"line-default", []string{"-line", "0"}, ""},
		{"valid-values", []string{"-digit", "1", "-width", "8", "-cache", "256"}, ""},
		{"bool-false", []string{"-prefetch=false"}, ""},
		{"workload", []string{"-workload", "keygen"}, ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fs := flag.NewFlagSet("dse", flag.ContinueOnError)
			repro.RegisterDimensionFlags(fs)
			repro.RegisterAxisFlags(fs)
			if err := fs.Parse(c.args); err != nil {
				t.Fatal(err)
			}
			err := repro.CheckZeroAxisFlags(fs)
			if c.want == "" {
				if err != nil {
					t.Fatalf("CheckZeroAxisFlags(%q) = %v, want accepted", c.args, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("CheckZeroAxisFlags(%q) = %v, want an error naming %q", c.args, err, c.want)
			}
		})
	}
}

// TestSweepAxisSubsets pins the -curves/-workload list parsing: names
// are trimmed and kept in order, while an empty or repeated name is
// rejected before any sweep runs (a repeat would sweep its slice of
// the grid twice), with an error listing every valid name.
func TestSweepAxisSubsets(t *testing.T) {
	got, err := splitNames("curve", "curves", "P-192, B-163", repro.CurveNames())
	if err != nil || !slices.Equal(got, []string{"P-192", "B-163"}) {
		t.Fatalf("splitNames = %q, %v; want [P-192 B-163]", got, err)
	}
	cases := []struct {
		name string
		cfg  sweepConfig
		want string
	}{
		{"repeated-curve", sweepConfig{curves: "P-192,P-192"}, `repeated curve name "P-192" in -curves "P-192,P-192"`},
		{"repeated-curve-spaced", sweepConfig{curves: "B-163, P-256 ,B-163"}, `repeated curve name "B-163"`},
		{"empty-curve", sweepConfig{curves: "P-192,"}, `empty curve name in -curves "P-192,"`},
		{"repeated-workload", sweepConfig{workloads: "keygen,keygen"}, `repeated workload name "keygen" in -workload "keygen,keygen"`},
		{"empty-workload", sweepConfig{workloads: ",ecdh"}, `empty workload name in -workload ",ecdh"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := runSweep(c.cfg)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("runSweep(%+v) = %v, want an error naming %q", c.cfg, err, c.want)
			}
			valid := repro.CurveNames()
			if c.cfg.workloads != "" {
				valid = repro.WorkloadNames()
			}
			for _, v := range valid {
				if !strings.Contains(err.Error(), v) {
					t.Errorf("error %q does not list valid name %q", err, v)
				}
			}
		})
	}
}
