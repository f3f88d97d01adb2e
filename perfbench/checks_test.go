package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sweepJSON builds a small sweep document with the given run header.
func sweepJSON(workers, hits, misses int, disk string, cycles uint64) []byte {
	return []byte(fmt.Sprintf(`{
  "clockHz": 333000000,
  "rawPoints": 8,
  "configs": 1,
  "workers": %d,
  "cacheHits": %d,
  "cacheMisses": %d,%s
  "points": [{"arch": "baseline", "curve": "P-192", "hash": "h1", "totalCycles": %d}],
  "pareto": [],
  "paretoPerLevel": [{"level": 1, "securityBits": 96, "points": [{"hash": "h1"}]}]
}`, workers, hits, misses, disk, cycles))
}

func TestNormalizeWarmEqualsCold(t *testing.T) {
	cold := sweepJSON(2, 0, 1, `
  "diskSaved": 1,`, 6090301)
	warm := sweepJSON(7, 1, 0, `
  "diskLoaded": 1,
  "diskUnchanged": true,`, 6090301)
	nc, dc, err := normalizeSweep(cold)
	if err != nil {
		t.Fatal(err)
	}
	nw, dw, err := normalizeSweep(warm)
	if err != nil {
		t.Fatal(err)
	}
	if string(nc) != string(nw) {
		t.Errorf("normalized outputs differ:\n%s\n%s", nc, nw)
	}
	if dc.CacheMisses != 1 || dw.CacheMisses != 0 || !dw.DiskUnchanged || dc.DiskUnchanged {
		t.Errorf("run header not parsed: cold %+v warm %+v", dc, dw)
	}
	if frontierKey(dc) != "L1:h1,;" || frontierKey(dc) != frontierKey(dw) {
		t.Errorf("frontier keys: %q %q", frontierKey(dc), frontierKey(dw))
	}

	// A changed simulated number is not normalized away.
	moved, _, err := normalizeSweep(sweepJSON(2, 0, 1, "", 6090302))
	if err != nil {
		t.Fatal(err)
	}
	if string(moved) == string(nc) {
		t.Error("normalization hid a changed totalCycles")
	}
}

func TestNormalizeAdaptive(t *testing.T) {
	doc := func(workers int) []byte {
		return []byte(fmt.Sprintf(`{"rounds": 2, "evaluated": 1, "gridConfigs": 8, "sweep": %s}`,
			sweepJSON(workers, 0, 1, "", 6090301)))
	}
	a, da, err := normalizeAdaptive(doc(2))
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := normalizeAdaptive(doc(5))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) || !strings.Contains(string(a), `"rounds":2`) {
		t.Errorf("adaptive normalization: %s vs %s", a, b)
	}
	if frontierKey(da) != "L1:h1,;" {
		t.Errorf("adaptive frontier key %q", frontierKey(da))
	}
	if _, _, err := normalizeSweep([]byte("not json")); err == nil {
		t.Error("garbage accepted as a sweep document")
	}
}

func TestAnchorErrors(t *testing.T) {
	anchors := []anchor{
		{"baseline", "P-192", 50},
		{"monte", "P-256", 20},
		{"billie", "B-163", 4},
	}
	got, err := anchorErrors(map[string]float64{
		"baseline/P-192": 60, // +20%
		"monte/P-256":    15, // -25%
		"billie/B-163":   4,  // exact
		"isa-ext/B-283":  99, // not an anchor: ignored
	}, anchors)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Max-0.25) > 1e-12 || got.Worst != "monte/P-256" {
		t.Errorf("max = %v at %s, want 0.25 at monte/P-256", got.Max, got.Worst)
	}
	if math.Abs(got.Mean-0.15) > 1e-12 {
		t.Errorf("mean = %v, want 0.15", got.Mean)
	}
	if _, err := anchorErrors(map[string]float64{"baseline/P-192": 60}, anchors); err == nil {
		t.Error("a missing anchor was not reported")
	}
}

func TestAnchorsFromSweepByHash(t *testing.T) {
	a := anchor{"monte", "P-256", 24.2}
	h, err := a.hash()
	if err != nil {
		t.Fatal(err)
	}
	doc := sweepDoc{Points: []pointDoc{{"not-the-default-config", 1}, {h, 2420000}}}
	got, err := anchorsFromSweep(doc, []anchor{a})
	if err != nil {
		t.Fatal(err)
	}
	if got["monte/P-256"] != 24.2 || len(got) != 1 {
		t.Errorf("anchors = %v", got)
	}
	e, err := anchorErrors(got, []anchor{a})
	if err != nil || e.Max != 0 {
		t.Errorf("error on an exact reproduction: %+v %v", e, err)
	}
}

func TestAnchorsFromReport(t *testing.T) {
	out := `Table 7.1: Latency per operation (100K clock cycles), prime fields
------------------------------------------------------------------
uarch        curve         sign    verify  sign+ver
baseline     P-192         27.8      33.1      60.9
monte        P-256         11.3      13.5      24.8

Table 7.2: Latency per operation (100K clock cycles), binary fields
-------------------------------------------------------------------
uarch        curve         sign    verify  sign+ver
billie       B-163          1.5       1.9       3.4

Table 7.3: FFAU area, static and dynamic power vs datapath width
width    bits    x    y    z
8        192     1    2    3
`
	got := anchorsFromReport(out)
	want := map[string]float64{"baseline/P-192": 60.9, "monte/P-256": 24.8, "billie/B-163": 3.4}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}

func TestCheckReportNames(t *testing.T) {
	out := []byte("Table 7.1: x\nrow\n\nTable 7.2: y\n\nBest design points (live)\n")
	if err := checkReportNames(out, []string{"table7.1", "table7.2", "bestdesign"}, true); err != nil {
		t.Errorf("complete report rejected: %v", err)
	}
	if err := checkReportNames(out, []string{"table7.2", "table7.1"}, true); err == nil {
		t.Error("out-of-order report accepted")
	}
	if err := checkReportNames(out, []string{"table7.1", "gating"}, true); err == nil {
		t.Error("report missing an experiment accepted")
	}
	if err := checkReportNames(out, []string{"newexperiment"}, true); err == nil {
		t.Error("experiment without a known title accepted")
	}
	list := []byte("table7.1\ntable7.2\nbestdesign\n\ndesign-space axes\n")
	if err := checkReportNames(list, []string{"table7.1", "table7.2", "bestdesign"}, false); err != nil {
		t.Errorf("complete -list output rejected: %v", err)
	}
	if err := checkReportNames(list, []string{"table7.1", "gating"}, false); err == nil {
		t.Error("-list output missing an experiment accepted")
	}
}
