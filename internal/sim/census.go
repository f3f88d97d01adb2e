package sim

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ec"
)

// The census memo: one functional profile run per curve serves every
// pricing.
//
// A phase's operation census depends only on the curve. The field
// multiplication algorithm (OSNIST/PSNIST/CIOS for prime curves,
// Comb/CLMul for binary) decides how a product is computed, not how many
// are called, and a workload is a selection of phases from the same
// deterministic keygen/ECDH/sign/verify run. Every design-space knob
// (architecture, cache geometry, prefetcher, accelerator widths and
// digits, gating, line size, workload) only affects how that census is
// *priced*. The first Run on a curve pays the functional crypto
// execution; every later Run on it prices the memoized census. The memo
// holds one entry per curve, regardless of grid size.
//
// Bit-exactness: the profile run is deterministic (fixed seeds,
// RFC-6979-style signing), so a memoized census is byte-for-byte the
// census a fresh profile run would produce — results, hashes, goldens
// and store bytes are identical with the memo on or off (pinned by the
// memo-vs-fresh equivalence tests). runs.golden profiles every
// multiplication algorithm and pins that its censuses agree.

// censusProfile is one memoized profile run: the per-phase censuses plus
// the curve parameters the pricing path needs downstream, so serving a
// memo hit touches no curve construction at all. The phases slice is
// shared by every pricing that hits the entry and is never mutated.
type censusProfile struct {
	phases []profiledPhase
	k      int // field element size in 32-bit words
	bits   int // field size in bits (prime: F.Bits; binary: F.M)
	nbits  int // group-order size in bits
}

type censusEntry struct {
	prof censusProfile
	err  error
}

// censusCache is the race-safe memo, keyed by curve name. Concurrent
// misses on the same curve are deduplicated singleflight-style (like
// dse.Cache.inflight): the first caller profiles, everyone else blocks
// and shares the entry.
type censusCache struct {
	mu       sync.Mutex
	m        map[string]censusEntry
	inflight map[string]*sync.WaitGroup

	hits   atomic.Uint64
	misses atomic.Uint64
}

var censuses = &censusCache{
	m:        make(map[string]censusEntry),
	inflight: make(map[string]*sync.WaitGroup),
}

// censusMemoOff gates the memo; the equivalence tests flip it to compare
// memoized pricings against fresh profile runs.
var censusMemoOff atomic.Bool

// DisableCensusMemo turns the process-wide census memo off (true) or
// back on (false). With the memo off every Run pays a fresh functional
// profile execution — the pre-memo behavior, kept reachable so
// equivalence tests can prove the memo changes nothing but speed.
func DisableCensusMemo(off bool) { censusMemoOff.Store(off) }

// CensusMemoEnabled reports whether Run serves censuses from the memo.
func CensusMemoEnabled() bool { return !censusMemoOff.Load() }

// ResetCensusMemo drops every memoized census and zeroes the hit/miss
// counters, forcing subsequent runs to profile from scratch (cold-sweep
// benchmarks and census-timing tests use this).
func ResetCensusMemo() {
	censuses.mu.Lock()
	defer censuses.mu.Unlock()
	censuses.m = make(map[string]censusEntry)
	censuses.inflight = make(map[string]*sync.WaitGroup)
	censuses.hits.Store(0)
	censuses.misses.Store(0)
}

// CensusMemoStats returns the memo's cumulative hit and miss counts
// since process start (or the last ResetCensusMemo). The same counts
// stream into an installed metrics registry as sim.census.hits /
// sim.census.misses.
func CensusMemoStats() (hits, misses uint64) {
	return censuses.hits.Load(), censuses.misses.Load()
}

// CensusMemoLen returns the number of memoized profiles.
func CensusMemoLen() int {
	censuses.mu.Lock()
	defer censuses.mu.Unlock()
	return len(censuses.m)
}

// ProfileCurves runs the census profile for every listed curve the memo
// does not hold yet, on at most workers goroutines, largest field first.
// Repeated and unknown names are skipped (Run reports an unknown curve).
// Each profile goes through the memo's singleflight, so a Run racing on
// the same curve still profiles it at most once, and a profile error is
// remembered and re-served by Run. A curve already memoized is skipped
// rather than counted as a hit. With the memo disabled it does nothing.
func ProfileCurves(curves []string, workers int) {
	censuses.prefetch(curves, workers, func(curve string) (censusProfile, error) {
		fam, _ := families(curve)
		return fam.profile(curve)
	})
}

// prefetch is ProfileCurves over an injectable profile function.
func (c *censusCache) prefetch(curves []string, workers int, profile func(curve string) (censusProfile, error)) {
	if censusMemoOff.Load() {
		return
	}
	var todo []string
	c.mu.Lock()
	for _, curve := range curves {
		if _, done := c.m[curve]; !done && ec.KnownCurve(curve) && !slices.Contains(todo, curve) {
			todo = append(todo, curve)
		}
	}
	c.mu.Unlock()
	slices.SortStableFunc(todo, func(a, b string) int { return ec.OrderBits(b) - ec.OrderBits(a) })

	jobs := make(chan string)
	var wg sync.WaitGroup
	for range min(max(workers, 1), len(todo)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for curve := range jobs {
				c.get(curve, profile)
			}
		}()
	}
	for _, curve := range todo {
		jobs <- curve
	}
	close(jobs)
	wg.Wait()
}

// get returns the memoized profile for curve, running profile(curve) at
// most once per curve. A profile error is remembered and re-served;
// matching dse.Cache's error-entry semantics, serving a remembered error
// does not count as a hit (the original failed run still counted as the
// one miss).
func (c *censusCache) get(curve string, profile func(curve string) (censusProfile, error)) (censusProfile, error) {
	if censusMemoOff.Load() {
		return profile(curve)
	}
	reg := metrics()
	for {
		c.mu.Lock()
		if e, ok := c.m[curve]; ok {
			c.mu.Unlock()
			if e.err == nil {
				c.hits.Add(1)
				if reg != nil {
					reg.Counter("sim.census.hits").Inc()
				}
			}
			return e.prof, e.err
		}
		if wg, ok := c.inflight[curve]; ok {
			c.mu.Unlock()
			wg.Wait()
			continue // the profiler has published; loop hits the memo
		}
		wg := new(sync.WaitGroup)
		wg.Add(1)
		c.inflight[curve] = wg
		c.mu.Unlock()

		c.misses.Add(1)
		if reg != nil {
			reg.Counter("sim.census.misses").Inc()
		}
		prof, err := profile(curve)
		c.mu.Lock()
		c.m[curve] = censusEntry{prof: prof, err: err}
		delete(c.inflight, curve)
		c.mu.Unlock()
		wg.Done()
		return prof, err
	}
}
