package dse

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/energy"
	"repro/internal/sim"
)

// The store line codec must write exactly encoding/json's bytes for a
// diskEntry and read back exactly what json.Unmarshal gives for the
// lines it admits. These tests hold it to encoding/json as the oracle.

// checkLineAgainstJSON decodes one line with both the codec and
// encoding/json and fails unless the codec admits it with the same
// entry and key and re-encodes it to the same bytes.
func checkLineAgainstJSON(t *testing.T, line []byte) {
	t.Helper()
	var got loadEntry
	key, ok := parseStoreLine(line, &got, map[string]string{})
	if !ok {
		t.Fatalf("codec rejects a line encoding/json wrote: %s", line)
	}
	var want diskEntry
	if err := json.Unmarshal(line, &want); err != nil {
		t.Fatal(err)
	}
	if got.Hash != want.Hash || string(key) != want.Key || !reflect.DeepEqual(got.Result, want.Result) {
		t.Fatalf("codec decodes %s\nto   %s %q %+v\nwant %s %q %+v", line, got.Hash, key, got.Result, want.Hash, want.Key, want.Result)
	}
	again, err := appendStoreLine(nil, got.Hash, string(key), &got.Result)
	if err != nil || !bytes.Equal(again, line) {
		t.Fatalf("codec re-encodes %s\nas %s (%v)", line, again, err)
	}
}

// TestStoreLineCodecRealStore round-trips every entry of a real
// four-workload store, whose lines SaveFile wrote through the codec,
// against encoding/json's encoding and decoding of the same entries.
func TestStoreLineCodecRealStore(t *testing.T) {
	dir := t.TempDir()
	spec := SweepSpec{Curves: []string{"P-192", "B-163", "P-521"}, CacheBytes: []int{1 << 10, 4 << 10},
		Prefetch: []bool{false, true}, MonteWidths: []int{8, 32}, BillieDigits: []int{1, 3},
		GateAccelIdle: []bool{false, true}, CacheLineBytes: []int{16, 64}, Workloads: allWorkloads}
	if _, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(DiskCachePath(dir))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) < 100 {
		t.Fatalf("store has %d lines, want a sizable grid", len(lines))
	}
	sawLine := false
	for _, line := range lines[1:] {
		checkLineAgainstJSON(t, line)
		var e diskEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		ref, err := json.Marshal(e)
		if err != nil || !bytes.Equal(ref, line) {
			t.Fatalf("store line differs from encoding/json's:\nstore %s\njson  %s", line, ref)
		}
		sawLine = sawLine || e.Result.Opt.CacheLineBytes != 0
	}
	if !sawLine {
		t.Error("no store line carries a non-default CacheLineBytes")
	}
}

// everyFieldResult is a sim.Result with every field set. fillNonZero's
// strings hold invalid UTF-8, which encodes as \ufffd and so cannot
// decode to the same bytes; these strings are valid UTF-8 that still
// needs every kind of escape.
func everyFieldResult() sim.Result {
	var r sim.Result
	fillNonZero(reflect.ValueOf(&r).Elem())
	const tricky = "<é\u2028\x01\"\\>&\n/"
	r.Curve, r.Workload, r.Opt.Workload = tricky, "handshake", tricky
	r.Phases[0].Name, r.Phases[1].Name = tricky, "sign"
	return r
}

// TestStoreLineCodecEveryField encodes results with every field set
// (strings that need escaping, exponent-form floats, the optional
// CacheLineBytes), with no phases and with an empty phase list, and
// checks encode and decode against encoding/json.
func TestStoreLineCodecEveryField(t *testing.T) {
	full := everyFieldResult()
	cases := map[string]sim.Result{"every field": full, "zero": {}, "no phases": {Phases: []sim.PhaseResult{}}}
	for name, r := range cases {
		line, err := appendStoreLine(nil, "h\"ash", "a key=<1>", &r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ref, err := json.Marshal(diskEntry{Hash: "h\"ash", Key: "a key=<1>", Result: r})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, ref) {
			t.Fatalf("%s: codec writes\n%s\nencoding/json writes\n%s", name, line, ref)
		}
		checkLineAgainstJSON(t, line)
		var got loadEntry
		if _, ok := parseStoreLine(line, &got, map[string]string{}); !ok || !reflect.DeepEqual(got.Result, r) {
			t.Errorf("%s: round trip gives %+v, want %+v", name, got.Result, r)
		}
	}

	full.Power.DynamicW = math.Inf(1)
	if _, err := appendStoreLine(nil, "h", "k", &full); err == nil {
		t.Error("codec encoded an infinite float")
	}
}

// TestStoreLineCodecRejectsOtherSpellings checks that lines
// encoding/json accepts but the codec never writes — respelled numbers,
// escapes and literals, whitespace, reordered, re-cased or extra keys —
// are corrupt, and that LoadFile keeps the prefix before such a line.
func TestStoreLineCodecRejectsOtherSpellings(t *testing.T) {
	r := sim.Result{Curve: "P-192", Workload: "sign",
		Phases: []sim.PhaseResult{{Name: "sign", Cycles: 5, Energy: energy.Breakdown{Pete: 1.5e-7}}}}
	b, err := appendStoreLine(nil, "h", "k", &r)
	if err != nil {
		t.Fatal(err)
	}
	line := string(b)
	edits := map[string][2]string{
		"space after colon":  {`"hash":`, `"hash": `},
		"trailing space":     {`}}`, `}} `},
		"re-cased key":       {`"Curve":`, `"curve":`},
		"unknown key":        {`,"key":`, `,"note":"x","key":`},
		"key order":          {`{"hash":"h","key":"k",`, `{"key":"k","hash":"h",`},
		"escaped character":  {`"P-192"`, `"P\u002d192"`},
		"upper-case escape":  {`"Name":"sign"`, `"Name":"sig\u006E"`},
		"float trailing 0":   {`1.5e-7`, `1.50e-7`},
		"float exponent pad": {`1.5e-7`, `1.5e-07`},
		"float fixed form":   {`1.5e-7`, `0.00000015`},
		"float zero":         {`"ROM":0`, `"ROM":0.0`},
		"negative zero int":  {`"Arch":0`, `"Arch":-0`},
		"zero line bytes":    {`"GateAccelIdle":false,`, `"GateAccelIdle":false,"CacheLineBytes":0,`},
	}
	for name, ed := range edits {
		edited := strings.Replace(line, ed[0], ed[1], 1)
		if edited == line {
			t.Fatalf("%s: edit did not apply to %s", name, line)
		}
		var viaJSON diskEntry
		if err := json.Unmarshal([]byte(edited), &viaJSON); err != nil {
			t.Fatalf("%s: encoding/json rejects the edit too (%v): %s", name, err, edited)
		}
		if _, ok := parseStoreLine([]byte(edited), &loadEntry{}, map[string]string{}); ok {
			t.Errorf("%s: codec admits a line SaveFile never writes: %s", name, edited)
		}
	}

	path, lines := storeLines(t)
	edited := bytes.Replace(lines[2], []byte(`"hash":`), []byte(`"hash": `), 1)
	damaged := append(bytes.Join([][]byte{lines[0], lines[1], edited}, []byte("\n")), '\n')
	if err := os.WriteFile(path, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	if n, err := c.LoadFile(path); err != nil || n != 1 {
		t.Errorf("LoadFile over a hand-edited line = %d, %v; want the 1-entry prefix", n, err)
	}

	// CRLF line ends: the header still parses as JSON, every entry line
	// ends in \r and is corrupt.
	crlf := append(bytes.Join(lines, []byte("\r\n")), '\r', '\n')
	if err := os.WriteFile(path, crlf, 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := NewCache().LoadFile(path); err != nil || n != 0 {
		t.Errorf("LoadFile over CRLF lines = %d, %v; want nothing loaded", n, err)
	}
}

// TestSaveFileRejectsNonFinite checks a result the codec cannot write
// fails the flush instead of writing a store it could not read back.
func TestSaveFileRejectsNonFinite(t *testing.T) {
	c := NewCache()
	cfg := Config{Arch: sim.Baseline, Curve: "P-192"}
	if _, _, err := c.GetOrRun(cfg); err != nil {
		t.Fatal(err)
	}
	for h, e := range c.m {
		e.res.Power.StaticW = math.NaN()
		c.m[h] = e
	}
	path := filepath.Join(t.TempDir(), DiskCacheFile)
	if _, err := c.SaveFile(path); err == nil || !strings.Contains(err.Error(), "write result cache") {
		t.Errorf("SaveFile of a NaN result: err = %v, want a write error", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("SaveFile left a store behind after failing: %v", err)
	}
}
