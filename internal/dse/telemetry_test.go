package dse

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// journalLines decodes a JSONL journal buffer into one map per event.
func journalLines(t *testing.T, buf *bytes.Buffer) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		out = append(out, m)
	}
	return out
}

// eventNames extracts the event sequence from decoded journal lines.
func eventNames(events []map[string]any) []string {
	out := make([]string, len(events))
	for i, e := range events {
		out[i], _ = e["event"].(string)
	}
	return out
}

// TestSweepTimingAndMetrics pins the tentpole contract: an instrumented
// sweep fills SweepResult.Timing and the registry, and the timing block
// appears in the JSON wire form only when a registry was attached — an
// uninstrumented sweep's JSON stays byte-free of it.
func TestSweepTimingAndMetrics(t *testing.T) {
	spec := diskSpec()
	dir := t.TempDir()
	reg := telemetry.New()
	res, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil {
		t.Fatal("instrumented sweep returned nil Timing")
	}
	tm := res.Timing
	if tm.TotalSeconds <= 0 || tm.ExpandSeconds < 0 {
		t.Errorf("implausible timing: %+v", tm)
	}
	if tm.Simulated.Count != int64(res.Configs) || tm.Cached.Count != 0 {
		t.Errorf("cold sweep split = %d simulated / %d cached, want %d / 0",
			tm.Simulated.Count, tm.Cached.Count, res.Configs)
	}
	if tm.Simulated.SumS <= 0 || tm.Simulated.MaxS < tm.Simulated.P50S {
		t.Errorf("degenerate simulate histogram: %+v", tm.Simulated)
	}
	if tm.FlushBytes <= 0 {
		t.Errorf("flush wrote a store but FlushBytes = %d", tm.FlushBytes)
	}

	s := reg.Snapshot()
	if s.Counters["sweep.points.simulated"] != int64(res.Configs) ||
		s.Counters["sweep.points.cached"] != 0 ||
		s.Counters["sweep.runs"] != 1 {
		t.Errorf("registry counters off: %+v", s.Counters)
	}
	if s.Histograms["sweep.point.simulate"].Count != int64(res.Configs) {
		t.Errorf("sweep.point.simulate count = %d, want %d",
			s.Histograms["sweep.point.simulate"].Count, res.Configs)
	}
	if s.Histograms["store.flush"].Count != 1 || s.Counters["store.flush.entries"] != int64(res.Configs) {
		t.Errorf("store flush metrics off: %+v / %+v", s.Histograms["store.flush"], s.Counters)
	}

	// A warm instrumented re-sweep is all cache hits, loaded from disk.
	warm, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timing.Cached.Count != int64(warm.Configs) || warm.Timing.Simulated.Count != 0 {
		t.Errorf("warm sweep split = %d simulated / %d cached, want 0 / %d",
			warm.Timing.Simulated.Count, warm.Timing.Cached.Count, warm.Configs)
	}
	if warm.Timing.LoadBytes <= 0 {
		t.Errorf("warm sweep loaded a store but LoadBytes = %d", warm.Timing.LoadBytes)
	}

	// Wire-form gate: "timing" appears iff the sweep was instrumented.
	instr, err := res.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(instr, []byte(`"timing"`)) {
		t.Error("instrumented sweep JSON lacks the timing block")
	}
	plain, err := Sweep(spec, SweepOptions{Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(plainJSON, []byte(`"timing"`)) {
		t.Error("uninstrumented sweep JSON grew a timing block")
	}
}

// TestSweepTimingCensusStage checks the census stage: a cold sweep
// profiles its curves before the pool starts and times it, while a warm
// restart served wholly from the store profiles nothing and reports 0.
// The stage is carried out of band: without Timing, the instrumented
// sweep's JSON is the plain sweep's, byte for byte.
func TestSweepTimingCensusStage(t *testing.T) {
	sim.ResetCensusMemo()
	defer sim.ResetCensusMemo()
	spec := diskSpec()
	dir := t.TempDir()
	cold, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Timing.CensusSeconds <= 0 {
		t.Errorf("cold sweep census stage = %gs, want > 0", cold.Timing.CensusSeconds)
	}
	warm, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: dir, Metrics: telemetry.New()})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Timing.CensusSeconds != 0 {
		t.Errorf("warm restart census stage = %gs, want 0 (every config cached)", warm.Timing.CensusSeconds)
	}

	plain, err := Sweep(spec, SweepOptions{Cache: NewCache(), CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := plain.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	cold.Timing = nil
	coldJSON, err := cold.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldJSON, plainJSON) {
		t.Error("instrumented sweep JSON differs from the plain sweep's beyond its timing block")
	}
}

// checkPointEvents asserts a journal's point events are one per
// configuration, in specification order, each with its duration and
// the wanted cache-hit flag.
func checkPointEvents(t *testing.T, events []map[string]any, cfgs []Config, wantCached bool) {
	t.Helper()
	var points []map[string]any
	for _, e := range events {
		if e["event"] == "point" {
			points = append(points, e)
		}
	}
	if len(points) != len(cfgs) {
		t.Fatalf("%d point events, want %d", len(points), len(cfgs))
	}
	for i, e := range points {
		if int(e["i"].(float64)) != i+1 || int(e["of"].(float64)) != len(cfgs) {
			t.Errorf("point %d out of order: %v", i, e)
		}
		if e["key"].(string) != cfgs[i].Key() {
			t.Errorf("point %d key = %v, want %s", i, e["key"], cfgs[i].Key())
		}
		if e["cached"].(bool) != wantCached {
			t.Errorf("point %d cached = %v, want %v", i, e["cached"], wantCached)
		}
		// A cache hit may be faster than the clock's resolution; a
		// simulated point never is.
		if sec := e["seconds"].(float64); sec < 0 || (!wantCached && sec == 0) {
			t.Errorf("point %d has no duration: %v", i, e)
		}
	}
}

// TestSweepJournal pins the journal lifecycle: sweep_start, per-point
// events in specification order, store_flush, sweep_end — cold and
// warm, for one worker and for several (points finish out of order on
// a wider pool; the journal must not).
func TestSweepJournal(t *testing.T) {
	spec := diskSpec()
	cfgs := spec.Expand()
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			var cold bytes.Buffer
			res, err := Sweep(spec, SweepOptions{Workers: workers, Cache: NewCache(), CacheDir: dir,
				Journal: telemetry.NewJournal(&cold)})
			if err != nil {
				t.Fatal(err)
			}
			events := journalLines(t, &cold)
			want := []string{"sweep_start"}
			for range cfgs {
				want = append(want, "point")
			}
			want = append(want, "store_flush", "sweep_end")
			if got := eventNames(events); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("cold event sequence = %v, want %v", got, want)
			}
			checkPointEvents(t, events, cfgs, false)
			flush := events[1+len(cfgs)]
			if int(flush["entries"].(float64)) != res.DiskSaved || flush["partial"] != nil {
				t.Errorf("flush event off: %v (saved %d)", flush, res.DiskSaved)
			}
			end := events[len(events)-1]
			if int(end["cacheMisses"].(float64)) != len(cfgs) || end["error"] != nil {
				t.Errorf("sweep_end off: %v", end)
			}

			// Warm re-run from disk: a store_load event, every point
			// cached, still in specification order.
			var warm bytes.Buffer
			if _, err := Sweep(spec, SweepOptions{Workers: workers, Cache: NewCache(), CacheDir: dir,
				Journal: telemetry.NewJournal(&warm)}); err != nil {
				t.Fatal(err)
			}
			warmEvents := journalLines(t, &warm)
			want = append([]string{"sweep_start", "store_load"}, want[1:]...)
			if got := eventNames(warmEvents); strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("warm event sequence = %v, want %v", got, want)
			}
			checkPointEvents(t, warmEvents, cfgs, true)
			if flush := warmEvents[2+len(cfgs)]; flush["unchanged"] != true {
				t.Errorf("warm flush should be unchanged: %v", flush)
			}
		})
	}
}

// TestSweepJournalErrorPath pins observability of failure: a sweep that
// dies mid-grid still journals the failing point (with its error), the
// partial flush of completed results, and a sweep_end carrying the
// error the caller sees.
func TestSweepJournalErrorPath(t *testing.T) {
	spec := diskSpec()
	cfgs := spec.Expand()
	last := cfgs[len(cfgs)-1]

	cache := NewCache()
	boom := errors.New("injected simulator failure")
	cache.mu.Lock()
	cache.m[last.Hash()] = cacheEntry{err: boom}
	cache.mu.Unlock()

	dir := t.TempDir()
	var buf bytes.Buffer
	_, err := Sweep(spec, SweepOptions{Workers: 1, Cache: cache, CacheDir: dir,
		Journal: telemetry.NewJournal(&buf)})
	if !errors.Is(err, boom) {
		t.Fatalf("sweep error = %v, want the injected failure", err)
	}

	events := journalLines(t, &buf)
	var points, pointErrs, flushes, ends int
	for _, e := range events {
		switch e["event"] {
		case "point":
			points++
			if e["error"] != nil {
				pointErrs++
				if !strings.Contains(e["error"].(string), "injected") {
					t.Errorf("point error lost the cause: %v", e)
				}
			}
		case "store_flush":
			flushes++
			if e["partial"] != true {
				t.Errorf("failed sweep's flush not marked partial: %v", e)
			}
			if int(e["entries"].(float64)) != len(cfgs)-1 {
				t.Errorf("partial flush persisted %v entries, want %d", e["entries"], len(cfgs)-1)
			}
		case "sweep_end":
			ends++
			if e["error"] == nil || !strings.Contains(e["error"].(string), "injected") {
				t.Errorf("sweep_end lost the error: %v", e)
			}
		}
	}
	// The failing point is journaled like every other: one point event
	// per configuration.
	if points != len(cfgs) {
		t.Errorf("%d point events, want %d (failure included)", points, len(cfgs))
	}
	if pointErrs != 1 || flushes != 1 || ends != 1 {
		t.Errorf("error-path events: %d point errors, %d flushes, %d ends (want 1 each)",
			pointErrs, flushes, ends)
	}
}

// slowWriter delays every write, standing in for a slow journal sink.
type slowWriter struct{ buf bytes.Buffer }

func (w *slowWriter) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	return w.buf.Write(p)
}

// TestSweepProgressSlowCallback pins that a slow consumer of the
// per-point stream cannot reorder it: with a wide pool and a journal
// sink that stalls on every line, each point is still journaled once,
// in specification order.
func TestSweepProgressSlowCallback(t *testing.T) {
	spec := diskSpec()
	cfgs := spec.Expand()
	var w slowWriter
	if _, err := Sweep(spec, SweepOptions{Workers: 4, Cache: NewCache(),
		Journal: telemetry.NewJournal(&w)}); err != nil {
		t.Fatal(err)
	}
	checkPointEvents(t, journalLines(t, &w.buf), cfgs, false)
}
