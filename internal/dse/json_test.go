package dse

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The sweep writer (indentWriter) must produce encoding/json's
// MarshalIndent bytes exactly. These tests hold it to encoding/json as
// the oracle: refWire rebuilds each document's wire structs through the
// public analyses, and json.MarshalIndent renders them.

// allWorkloads is the four-scenario workload axis.
var allWorkloads = []string{sim.WorkloadSignVerify, sim.WorkloadKeyGen, sim.WorkloadECDH, sim.WorkloadHandshake}

// refWire is the reference wire form of a sweep: every point and every
// frontier point rendered through ToJSON, the frontiers from the public
// Pareto and ParetoPerLevel.
func refWire(r *SweepResult) SweepJSON {
	out := SweepJSON{
		ClockHz: energy.SystemClockHz, RawPoints: r.RawPoints, Configs: r.Configs,
		Workers: r.Workers, CacheHits: r.CacheHits, CacheMisses: r.CacheMisses,
		DiskLoaded: r.DiskLoaded, DiskSaved: r.DiskSaved, DiskUnchanged: r.DiskUnchanged,
		Timing: r.Timing, Points: make([]PointJSON, 0),
	}
	for _, p := range r.Points {
		out.Points = append(out.Points, p.ToJSON())
	}
	out.Pareto, out.ParetoPerLevel = refFrontiers(r.Points)
	return out
}

func refFrontiers(points []Point) ([]PointJSON, []LevelFrontierJSON) {
	global := make([]PointJSON, 0)
	for _, p := range Pareto(points) {
		global = append(global, p.ToJSON())
	}
	var levels []LevelFrontierJSON
	for _, lf := range ParetoPerLevel(points) {
		j := LevelFrontierJSON{Level: lf.Level, SecurityBits: lf.SecurityBits, Points: make([]PointJSON, 0)}
		for _, p := range lf.Points {
			j.Points = append(j.Points, p.ToJSON())
		}
		levels = append(levels, j)
	}
	return global, levels
}

// sameAsOracle fails the test unless got equals MarshalIndent(want).
func sameAsOracle(t *testing.T, name string, got []byte, err error, want any) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	ref, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !bytes.Equal(got, ref) {
		i := 0
		for i < len(got) && i < len(ref) && got[i] == ref[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: writer differs from encoding/json at byte %d of %d/%d:\nwriter: %q\noracle: %q",
			name, i, len(got), len(ref), got[lo:min(i+80, len(got))], ref[lo:min(i+80, len(ref))])
	}
}

func adaptiveRef(ar *AdaptiveResult) AdaptiveJSON {
	return AdaptiveJSON{Rounds: ar.Rounds, Evaluated: ar.Evaluated, GridConfigs: ar.GridConfigs,
		Pruned: ar.Pruned, FrontierMoves: ar.FrontierMoves, BudgetHit: ar.BudgetHit, Sweep: refWire(ar.Result)}
}

// TestSweepWriterMatchesEncodingJSON covers the documents dse prints:
// the four-workload FullSweep, its frontier document, an adaptive run,
// instrumented sweeps (the timing block, standalone and one level deep)
// and a warm store restart (the disk fields).
func TestSweepWriterMatchesEncodingJSON(t *testing.T) {
	spec := FullSweep()
	spec.Workloads = allWorkloads
	full, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Points) != 2120 {
		t.Fatalf("four-workload FullSweep has %d points, want 2120", len(full.Points))
	}
	got, err := full.MarshalJSON()
	sameAsOracle(t, "FullSweep", got, err, refWire(full))

	var fr FrontiersJSON
	fr.Pareto, fr.ParetoPerLevel = refFrontiers(full.Points)
	got, err = FrontierJSONBytes(full.Points)
	sameAsOracle(t, "frontiers", got, err, fr)

	ar, err := AdaptiveSweep(FullSweep(), SweepOptions{Cache: NewCache(), Metrics: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if ar.Result.Timing == nil {
		t.Fatal("instrumented adaptive run has no timing")
	}
	got, err = ar.MarshalJSON()
	sameAsOracle(t, "adaptive", got, err, adaptiveRef(ar))
	ar.BudgetHit = true
	got, err = ar.MarshalJSON()
	sameAsOracle(t, "adaptive budget hit", got, err, adaptiveRef(ar))

	dir := t.TempDir()
	for _, pass := range []string{"cold store", "warm store"} {
		res, err := Sweep(diskSpec(), SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: telemetry.New()})
		if err != nil {
			t.Fatal(err)
		}
		got, err = res.MarshalJSON()
		sameAsOracle(t, pass, got, err, refWire(res))
	}
}

// TestSweepWriterEmptyDocuments pins the empty cases: [] for points
// and the global frontier, null for paretoPerLevel.
func TestSweepWriterEmptyDocuments(t *testing.T) {
	got, err := (&SweepResult{}).MarshalJSON()
	sameAsOracle(t, "empty sweep", got, err, refWire(&SweepResult{}))
	var fr FrontiersJSON
	fr.Pareto, fr.ParetoPerLevel = refFrontiers(nil)
	got, err = FrontierJSONBytes(nil)
	sameAsOracle(t, "empty frontiers", got, err, fr)
	if !bytes.Contains(got, []byte(`"paretoPerLevel": null`)) {
		t.Errorf("empty frontier document lacks a null paretoPerLevel:\n%s", got)
	}
}

// fillNonZero sets every field reachable from v to a non-zero value:
// strings that need escaping, floats that take the exponent form, true,
// and one filled element per slice. A field the writer forgets then
// shows as a difference from encoding/json.
func fillNonZero(v reflect.Value) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillNonZero(v.Field(i))
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fillNonZero(v.Index(0))
		fillNonZero(v.Index(1))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillNonZero(v.Elem())
	case reflect.String:
		v.SetString("a<b>&c\"d\\e\n\x01\u2028é\xff/")
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-42)
	case reflect.Uint64:
		v.SetUint(math.MaxUint64)
	case reflect.Float64:
		v.SetFloat(1.25e-7)
	default:
		panic("fillNonZero: unhandled kind " + v.Kind().String())
	}
}

// TestSweepWriterEveryField renders a point with every PointJSON and
// PhaseJSON field set, and one with every field zero, then a sweep and
// an adaptive document with every one of their own fields set, the
// timing block included.
func TestSweepWriterEveryField(t *testing.T) {
	var full PointJSON
	fillNonZero(reflect.ValueOf(&full).Elem())
	for name, p := range map[string]PointJSON{"every field": full, "zero": {}} {
		w := newIndentWriter(1)
		w.point(&p)
		got, err := w.bytes()
		sameAsOracle(t, name, got, err, p)
	}

	res, err := Sweep(diskSpec(), SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	res.RawPoints, res.Configs, res.Workers, res.CacheHits, res.CacheMisses = 1, 2, 3, 4, 5
	res.DiskLoaded, res.DiskSaved, res.DiskUnchanged = 6, 7, true
	fillNonZero(reflect.ValueOf(&res.Timing).Elem())
	got, err := res.MarshalJSON()
	sameAsOracle(t, "sweep fields", got, err, refWire(res))
	ar := &AdaptiveResult{Result: res, Rounds: 1, Evaluated: 2, GridConfigs: 3, Pruned: 4, FrontierMoves: 5, BudgetHit: true}
	got, err = ar.MarshalJSON()
	sameAsOracle(t, "adaptive fields", got, err, adaptiveRef(ar))
}

// TestJSONScalarsMatchEncodingJSON checks the float and string
// renderings against encoding/json across the format boundaries.
func TestJSONScalarsMatchEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, -1.5e-7, 1e-10,
		1.25e-100, 5e-324, 1e20, 1e21, 123456789e15, 1.7976931348623157e308, 100e6, 3.3e-5,
		0.000010109192816816817, 8.837750882882883e-7}
	for _, f := range floats {
		got, err := appendJSONFloat(nil, f)
		want, werr := json.Marshal(f)
		if err != nil || werr != nil || !bytes.Equal(got, want) {
			t.Errorf("float %g: writer %q (%v), encoding/json %q (%v)", f, got, err, want, werr)
		}
	}
	strs := []string{"", "plain", "P-192", "sign-verify", `q"b\`, "<>&", "\b\f\n\r\t\x00\x1f\x7f",
		"é€😀", "\u2028\u2029", "\xff\xfe", "a\xc3", "/", "\ufffd"}
	for _, s := range strs {
		got := appendJSONString(nil, s)
		want, _ := json.Marshal(s)
		if !bytes.Equal(got, want) {
			t.Errorf("string %q: writer %s, encoding/json %s", s, got, want)
		}
	}
}

// TestSweepWriterRejectsNonFinite checks NaN and ±Inf fail the
// documents with encoding/json's error, as MarshalIndent did.
func TestSweepWriterRejectsNonFinite(t *testing.T) {
	res, err := Sweep(diskSpec(), SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := *res
		bad.Points = append([]Point(nil), res.Points...)
		bad.Points[0].EDP = f
		_, err := bad.MarshalJSON()
		_, want := json.MarshalIndent(refWire(&bad), "", "  ")
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("EDP %v: writer error %v, encoding/json error %v", f, err, want)
		}
		if _, err := (&AdaptiveResult{Result: &bad}).MarshalJSON(); err == nil {
			t.Errorf("EDP %v: adaptive document rendered without error", f)
		}
		// A lone point is its own frontier.
		if _, err := FrontierJSONBytes(bad.Points[:1]); err == nil {
			t.Errorf("EDP %v: frontier document rendered without error", f)
		}
	}
}
