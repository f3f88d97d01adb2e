package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/ec"
)

// allArches is every Arch value, valid and invalid pairings included —
// the equivalence matrix must prove the memo preserves errors too.
var allArches = []Arch{
	Baseline, ISAExt, ISAExtCache, WithMonte, WithBillie, BaselineCache, MonteCache,
}

func allCurves() []string {
	out := append([]string{}, ec.PrimeCurveNames...)
	return append(out, ec.BinaryCurveNames...)
}

// TestCensusMemoEquivalence is the tentpole's bit-exactness pin: over the
// full arch x curve x workload matrix, a memo-served Run must be
// reflect.DeepEqual to a fresh-profiled Run — results and errors alike.
// The memo may only change speed, never a single byte of output.
func TestCensusMemoEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("fresh-profiles the full arch x curve x workload matrix")
	}
	ResetCensusMemo()
	defer ResetCensusMemo()

	type cell struct {
		res Result
		err error
	}
	run := func() map[string]cell {
		out := make(map[string]cell)
		for _, arch := range allArches {
			for _, curve := range allCurves() {
				for _, wl := range Workloads() {
					res, err := Run(arch, curve, Options{Workload: wl})
					out[fmt.Sprintf("%s/%s/%s", arch, curve, wl)] = cell{res, err}
				}
			}
		}
		return out
	}

	memoized := run()
	if h, m := CensusMemoStats(); h == 0 || m == 0 {
		t.Fatalf("matrix exercised the memo poorly: %d hits, %d misses", h, m)
	}

	DisableCensusMemo(true)
	defer DisableCensusMemo(false)
	fresh := run()

	if len(memoized) != len(fresh) {
		t.Fatalf("matrix sizes differ: %d vs %d", len(memoized), len(fresh))
	}
	for key, m := range memoized {
		f := fresh[key]
		if (m.err == nil) != (f.err == nil) ||
			(m.err != nil && m.err.Error() != f.err.Error()) {
			t.Errorf("%s: memo err %v, fresh err %v", key, m.err, f.err)
			continue
		}
		if !reflect.DeepEqual(m.res, f.res) {
			t.Errorf("%s: memoized result diverges from fresh profile:\n  memo:  %+v\n  fresh: %+v",
				key, m.res, f.res)
		}
	}
}

// TestCensusMemoErrorSemantics pins the memo's error-entry contract
// (mirroring dse.Cache): a profile error is remembered and re-served
// without re-profiling, counted as the one original miss and never as a
// hit.
func TestCensusMemoErrorSemantics(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	boom := errors.New("profiler exploded")
	calls := 0
	failing := func(string) (censusProfile, error) {
		calls++
		return censusProfile{}, boom
	}
	key := "P-000"

	if _, err := censuses.get(key, failing); err != boom {
		t.Fatalf("first get: err = %v, want %v", err, boom)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 1 {
		t.Errorf("after failing profile: %d hits / %d misses, want 0 / 1", h, m)
	}
	if _, err := censuses.get(key, failing); err != boom {
		t.Fatalf("second get: err = %v, want remembered %v", err, boom)
	}
	if calls != 1 {
		t.Errorf("profile ran %d times, want 1 (error must be remembered)", calls)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 1 {
		t.Errorf("re-serving an error moved the counters: %d hits / %d misses, want 0 / 1", h, m)
	}

	// A successful entry, by contrast, counts one miss then hits.
	good := "P-001"
	ok := func(string) (censusProfile, error) { return censusProfile{k: 6}, nil }
	if _, err := censuses.get(good, ok); err != nil {
		t.Fatal(err)
	}
	if _, err := censuses.get(good, ok); err != nil {
		t.Fatal(err)
	}
	if h, m := CensusMemoStats(); h != 1 || m != 2 {
		t.Errorf("counters = %d hits / %d misses, want 1 / 2", h, m)
	}
	if n := CensusMemoLen(); n != 2 {
		t.Errorf("memo holds %d entries, want 2 (error entry included)", n)
	}
}

// TestCensusMemoDisableBypasses checks the opt-out: with the memo off,
// every get runs the profile function and nothing is memoized or counted.
func TestCensusMemoDisableBypasses(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()
	DisableCensusMemo(true)
	defer DisableCensusMemo(false)

	if CensusMemoEnabled() {
		t.Fatal("CensusMemoEnabled() = true after DisableCensusMemo(true)")
	}
	calls := 0
	key := "P-000"
	profile := func(string) (censusProfile, error) { calls++; return censusProfile{}, nil }
	for i := 0; i < 3; i++ {
		if _, err := censuses.get(key, profile); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 {
		t.Errorf("profile ran %d times with the memo off, want 3", calls)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 0 {
		t.Errorf("disabled memo moved counters: %d hits / %d misses", h, m)
	}
	if n := CensusMemoLen(); n != 0 {
		t.Errorf("disabled memo stored %d entries", n)
	}
}

// TestCensusMemoConcurrent hammers one cold memo from many goroutines
// (run under -race in CI): concurrent misses on the same curve must
// deduplicate singleflight-style — exactly one profile execution for the
// curve, whatever the arch — and every caller must see the identical
// result.
func TestCensusMemoConcurrent(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	archs := []Arch{Baseline, ISAExt, WithMonte}
	widths := []int{8, 16, 32, 64}
	const loops = 3

	var wg sync.WaitGroup
	var mu sync.Mutex
	results := make(map[string]Result)
	for _, arch := range archs {
		for _, w := range widths {
			if w != DefaultMonteWidth && arch != WithMonte {
				continue // width is a Monte-only knob
			}
			for i := 0; i < loops; i++ {
				arch, w := arch, w
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := Run(arch, "P-224", Options{MonteWidth: w})
					if err != nil {
						t.Error(err)
						return
					}
					key := fmt.Sprintf("%s/%d", arch, w)
					mu.Lock()
					defer mu.Unlock()
					if prev, ok := results[key]; ok {
						if !reflect.DeepEqual(prev, res) {
							t.Errorf("%s: racing runs diverged", key)
						}
						return
					}
					results[key] = res
				}()
			}
		}
	}
	wg.Wait()

	// One curve -> one census; everything else (all three archs, the
	// width variants, the repeat loops) must have been hits.
	if _, m := CensusMemoStats(); m != 1 {
		t.Errorf("memo misses = %d, want 1 (one profile per curve)", m)
	}
	if n := CensusMemoLen(); n != 1 {
		t.Errorf("memo holds %d entries, want 1", n)
	}
}

// TestAssembleZeroCycleTallyNoNaN pins the degenerate-census guard: a
// phase whose tally prices to zero cycles must produce zero energy and
// zero power, not NaN (activity and DynamicW both divide by the elapsed
// quantity, which is zero here).
func TestAssembleZeroCycleTallyNoNaN(t *testing.T) {
	wl, ok := workloadByName(WorkloadKeyGen)
	if !ok {
		t.Fatal("keygen workload missing")
	}
	res, err := assemble(Baseline, "P-192", DefaultOptions(), wl,
		[]profiledPhase{{name: PhaseKeyGen}}, []tally{{}}, 192)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Phases {
		if total := p.Energy.Total(); math.IsNaN(total) || math.IsInf(total, 0) {
			t.Errorf("phase %s energy = %v, want finite", p.Name, total)
		}
		if math.IsNaN(p.Energy.Pete) {
			t.Errorf("phase %s Pete energy is NaN (activity divided by zero cycles)", p.Name)
		}
	}
	if math.IsNaN(res.Power.DynamicW) || math.IsInf(res.Power.DynamicW, 0) {
		t.Errorf("Power.DynamicW = %v, want finite (zero-duration workload)", res.Power.DynamicW)
	}
	if res.Power.DynamicW != 0 {
		t.Errorf("Power.DynamicW = %v, want 0 for a zero-cycle workload", res.Power.DynamicW)
	}
}

// TestProfileCurvesDedupesLargestFirst pins ProfileCurves' work list:
// repeated and unknown names are dropped, the remaining curves are
// profiled largest field first, and a curve already memoized is skipped
// without counting a hit.
func TestProfileCurvesDedupesLargestFirst(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	var order []string
	record := func(curve string) (censusProfile, error) {
		order = append(order, curve)
		return censusProfile{}, nil
	}
	censuses.prefetch([]string{"P-192", "B-571", "P-192", "X-1", "P-521", "B-163", "B-571"}, 1, record)
	if want := []string{"B-571", "P-521", "P-192", "B-163"}; !reflect.DeepEqual(order, want) {
		t.Errorf("profiled %q, want %q (deduplicated, largest field first)", order, want)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 4 {
		t.Errorf("counters = %d hits / %d misses, want 0 / 4", h, m)
	}

	// Memoized curves are skipped; the real entry point profiles only
	// the new one.
	ProfileCurves([]string{"P-192", "P-224", "P-224"}, 4)
	if h, m := CensusMemoStats(); h != 0 || m != 5 {
		t.Errorf("counters = %d hits / %d misses, want 0 / 5", h, m)
	}
	if n := CensusMemoLen(); n != 5 {
		t.Errorf("memo holds %d entries, want 5", n)
	}
}

// TestProfileCurvesDisabledMemo checks that ProfileCurves does nothing
// while the memo is off: there is nowhere to keep a prefetched census.
func TestProfileCurvesDisabledMemo(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()
	DisableCensusMemo(true)
	defer DisableCensusMemo(false)

	calls := 0
	censuses.prefetch([]string{"P-192", "B-163"}, 2, func(string) (censusProfile, error) {
		calls++
		return censusProfile{}, nil
	})
	ProfileCurves([]string{"P-192", "B-163"}, 2)
	if calls != 0 {
		t.Errorf("profile ran %d times with the memo off, want 0", calls)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 0 {
		t.Errorf("disabled memo moved counters: %d hits / %d misses", h, m)
	}
	if n := CensusMemoLen(); n != 0 {
		t.Errorf("disabled memo stored %d entries", n)
	}
}

// TestProfileCurvesRacesRun runs ProfileCurves against concurrent Run
// calls on the same curves (under -race in CI): the singleflight must
// still profile each curve exactly once, and every Run must see the
// census a lone Run computes.
func TestProfileCurvesRacesRun(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	curves := []string{"P-192", "B-163", "P-224"}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ProfileCurves(curves, 2)
		}()
	}
	results := make([]Result, 2*len(curves))
	for i := range results {
		curve := curves[i%len(curves)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Run(Baseline, curve, Options{Workload: WorkloadECDH})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()

	if _, m := CensusMemoStats(); m != uint64(len(curves)) {
		t.Errorf("memo misses = %d, want %d (one profile per curve)", m, len(curves))
	}
	ResetCensusMemo()
	for i, res := range results {
		want, err := Run(Baseline, res.Curve, Options{Workload: WorkloadECDH})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("run %d on %s diverged from a lone run", i, res.Curve)
		}
	}
}

// TestProfileCurvesErrorServedByRun pins the error contract through the
// prefetch: a profile that fails in ProfileCurves is remembered, and Run
// re-serves that error without profiling again and without a hit.
func TestProfileCurvesErrorServedByRun(t *testing.T) {
	ResetCensusMemo()
	defer ResetCensusMemo()

	boom := errors.New("profiler exploded")
	calls := 0
	censuses.prefetch([]string{"P-192"}, 2, func(string) (censusProfile, error) {
		calls++
		return censusProfile{}, boom
	})
	for i := 0; i < 2; i++ {
		if _, err := Run(Baseline, "P-192", Options{}); err != boom {
			t.Fatalf("Run %d: err = %v, want the prefetched %v", i, err, boom)
		}
	}
	if calls != 1 {
		t.Errorf("profile ran %d times, want 1 (error must be remembered)", calls)
	}
	if h, m := CensusMemoStats(); h != 0 || m != 1 {
		t.Errorf("counters = %d hits / %d misses, want 0 / 1", h, m)
	}
}
