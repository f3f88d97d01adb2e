package sim

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ec"
	"repro/internal/gf2"
	"repro/internal/mp"
)

// The runs golden pins, across commits, the two things every result is
// made of: the operation census of each profiled phase (per curve,
// field multiplication algorithm and workload) and the priced outcome of
// each (arch, curve, workload) at the default options, floats as exact
// %x bits. The census-memo equivalence tests compare two paths inside
// one build; this file catches a census or pricing drift between builds.
//
//	go test ./internal/sim/ -run TestRunsGolden -update
var update = flag.Bool("update", false, "rewrite testdata/runs.golden from current output")

const runsGoldenPath = "testdata/runs.golden"

// goldenCensus profiles one workload on the named curve with the given
// field multiplication algorithm (an mp.MulAlg for prime curves, a
// gf2.MulAlg for binary ones).
func goldenCensus(curve string, alg fmt.Stringer, wl workloadDef) ([]profiledPhase, error) {
	if a, ok := alg.(mp.MulAlg); ok {
		return profileWorkload(ec.NISTPrimeCurve(curve, a), curve, wl)
	}
	return profileWorkload(ec.NISTBinaryCurve(curve, alg.(gf2.MulAlg)), curve, wl)
}

func renderRunsGolden() (string, error) {
	var b strings.Builder
	for _, curve := range allCurves() {
		algs := []fmt.Stringer{gf2.Comb, gf2.CLMul}
		if IsPrimeCurve(curve) {
			algs = []fmt.Stringer{mp.OSNIST, mp.PSNIST, mp.CIOS}
		}
		for _, alg := range algs {
			for _, wl := range workloadDefs {
				phases, err := goldenCensus(curve, alg, wl)
				if err != nil {
					return "", fmt.Errorf("census %s/%s/%s: %w", curve, alg, wl.name, err)
				}
				for _, p := range phases {
					f := p.census.Field
					fmt.Fprintf(&b, "census %s %s %s %s field mul=%d sqr=%d add=%d sub=%d inv=%d",
						curve, alg, wl.name, p.name, f.Mul, f.Sqr, f.Add, f.Sub, f.Inv)
					o := p.census.Order
					fmt.Fprintf(&b, " order mul=%d sqr=%d add=%d sub=%d inv=%d red=%d",
						o.Mul, o.Sqr, o.Add, o.Sub, o.Inv, o.Red)
					pt := p.census.Point
					fmt.Fprintf(&b, " point dbl=%d add=%d neg=%d toaffine=%d\n",
						pt.Dbl, pt.Add, pt.Neg, pt.ToAffine)
				}
			}
		}
	}
	for _, arch := range allArches {
		for _, curve := range allCurves() {
			for _, wl := range Workloads() {
				opt := DefaultOptions()
				opt.Workload = wl
				res, err := Run(arch, curve, opt)
				if err != nil {
					fmt.Fprintf(&b, "run %s %s %s error %q\n", arch, curve, wl, err)
					continue
				}
				for _, p := range res.Phases {
					e := p.Energy
					fmt.Fprintf(&b, "run %s %s %s %s cycles=%d pete=%x rom=%x ram=%x uncore=%x accel=%x\n",
						arch, curve, wl, p.Name, p.Cycles, e.Pete, e.ROM, e.RAM, e.Uncore, e.Accel)
				}
				fmt.Fprintf(&b, "run %s %s %s total fetches=%d reads=%d writes=%d accel=%d stall=%d static=%x dynamic=%x\n",
					arch, curve, wl, res.InstFetches, res.RAMReads, res.RAMWrites, res.AccelBusy,
					res.CacheMissStall, res.Power.StaticW, res.Power.DynamicW)
			}
		}
	}
	return b.String(), nil
}

func TestRunsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles every curve x algorithm x workload")
	}
	got, err := renderRunsGolden()
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.MkdirAll(filepath.Dir(runsGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(runsGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", runsGoldenPath, len(got))
		return
	}
	wantB, err := os.ReadFile(runsGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	want := string(wantB)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	diffs := 0
	for i := 0; i < max(len(gotLines), len(wantLines)); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			if diffs++; diffs <= 10 {
				t.Errorf("line %d:\n  got:  %q\n  want: %q", i+1, g, w)
			}
		}
	}
	t.Errorf("%d of %d lines differ from %s (regenerate with -update only for an intended model change)",
		diffs, len(wantLines), runsGoldenPath)
}
