package main

import (
	"fmt"
	"math"

	"repro/internal/dse"
	"repro/internal/sim"
)

// anchor is one published Sign+Verify latency of the paper, in units of
// 100K clock cycles at the design's default configuration.
//
// Source: Tables 7.1 (prime fields) and 7.2 (binary fields) of the
// paper, as transcribed in internal/sim/sim_test.go
// (TestLatencyAnchorsTable71 and TestLatencyAnchorsTable72). These 15
// points are the only published values the model is validated against;
// every other number a sweep prints is extrapolated by the model.
type anchor struct {
	Arch  string // dse CLI spelling
	Curve string
	Paper float64
}

var paperAnchors = []anchor{
	{"baseline", "P-192", 61.2},
	{"baseline", "P-256", 130.0},
	{"baseline", "P-384", 308.5},
	{"isa-ext", "P-192", 46.1},
	{"isa-ext", "P-256", 96.4},
	{"isa-ext", "P-521", 414.5},
	{"monte", "P-192", 13.4},
	{"monte", "P-256", 24.2},
	{"monte", "P-521", 142.7},
	{"baseline", "B-163", 139.1},
	{"baseline", "B-283", 430.7},
	{"isa-ext", "B-163", 22.1},
	{"isa-ext", "B-283", 51.8},
	{"billie", "B-163", 4.2},
	{"billie", "B-571", 36.4},
}

func (a anchor) label() string { return a.Arch + "/" + a.Curve }

// hash is the canonical config hash of the anchor's design at its
// default options and the default Sign+Verify workload: the key a sweep
// JSON point carries, so anchors are selected without guessing from
// rendered option fields (several default fields are omitted there).
func (a anchor) hash() (string, error) {
	arch, err := dse.ParseArch(a.Arch)
	if err != nil {
		return "", err
	}
	return dse.Config{Arch: arch, Curve: a.Curve, Opt: sim.DefaultOptions()}.Hash(), nil
}

// anchorError summarizes |reproduced/paper - 1| over the anchors.
type anchorError struct {
	Max, Mean float64
	Worst     string // label of the anchor with the largest error
}

// anchorErrors compares reproduced Sign+Verify latencies (100K cycles,
// keyed by anchor label) with the paper. Every anchor must be present.
func anchorErrors(reproduced map[string]float64, anchors []anchor) (anchorError, error) {
	var out anchorError
	if len(anchors) == 0 {
		return out, fmt.Errorf("no anchors")
	}
	var sum float64
	for _, a := range anchors {
		got, ok := reproduced[a.label()]
		if !ok {
			return anchorError{}, fmt.Errorf("anchor %s missing from the output", a.label())
		}
		e := math.Abs(got/a.Paper - 1)
		sum += e
		if e > out.Max {
			out.Max, out.Worst = e, a.label()
		}
	}
	out.Mean = sum / float64(len(anchors))
	return out, nil
}
