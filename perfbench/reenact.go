package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/dse"
	"repro/internal/report"
	"repro/internal/sim"
)

// childReport is what a traced child writes when its re-enactment ends.
type childReport struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
	Errors  []string           `json:"errors"`
}

// child re-enacts one workload in a fresh process through the public
// entry points of sim, dse and report, sequentially, with a span around
// each call.
type child struct {
	t     *tracer
	rep   *childReport
	store string // warm-restart: the filled store directory
	ref   string // SHA-256 of the normalized output the dse binary printed
}

func runChild(name, store, ref, outPath string) error {
	c := &child{
		t:     newTracer(),
		rep:   &childReport{Metrics: map[string]float64{}},
		store: store, ref: ref,
	}
	acts := map[string]func(root int){
		"cold-sweep":        c.coldSweep,
		"warm-restart":      c.warmRestart,
		"report-all":        c.reportAll,
		"adaptive-frontier": c.adaptiveFrontier,
	}
	act, ok := acts[name]
	if !ok {
		return fmt.Errorf("unknown child workload %q", name)
	}
	root := c.t.start("child."+name, 0)
	act(root)
	c.t.end(root)

	c.rep.Spans = c.t.spans
	c.set("trace.unattributed_ms", ms(unattributed(c.t.spans)))
	c.set("trace.overhead_ms", ms(spanCost()*time.Duration(len(c.t.spans))))
	b, err := json.Marshal(c.rep)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, b, 0o644)
}

func (c *child) set(name string, v float64) { c.rep.Metrics[name] = v }

func (c *child) fail(format string, a ...any) {
	c.rep.Errors = append(c.rep.Errors, fmt.Sprintf(format, a...))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// fullSpec is the grid every sweep workload runs.
func fullSpec() dse.SweepSpec {
	spec := dse.FullSweep()
	spec.Workloads = strings.Split(scenarios, ",")
	return spec
}

// heapCounts reads the cumulative heap allocation totals.
func heapCounts() (bytes, objects uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc, m.Mallocs
}

// medianOf runs fn reps times inside spans named name and returns the
// median duration.
func (c *child) medianOf(reps int, name string, parent int, fn func()) time.Duration {
	var ds []float64
	for i := 0; i < reps; i++ {
		ds = append(ds, float64(c.t.do(name, parent, func(int) { fn() })))
	}
	return time.Duration(median(ds))
}

// checkSweepSHA fails the child when a sweep result's normalized JSON
// differs from the dse binary's output.
func (c *child) checkSweepSHA(what string, js []byte) {
	norm, _, err := normalizeSweep(js)
	switch {
	case err != nil:
		c.fail("%s: %v", what, err)
	case sha(norm) != c.ref:
		c.fail("%s: normalized output differs from the dse binary's", what)
	}
}

// coldSweep re-enacts `dse -sweep` with no store: expansion, the cold
// kernel measurement, every configuration's sim.Run in expansion order
// (census misses and memo-hit pricings told apart by the census memo's
// counters), the sweep over the warm memo, Pareto and JSON encoding;
// then the field-arithmetic and kernel probes.
func (c *child) coldSweep(root int) {
	spec := fullSpec()
	var cfgs []dse.Config
	c.set("dse.expand_ms", ms(c.t.do("dse.expand", root, func(int) { cfgs = spec.Expand() })))

	c.set("sim.field_costs_cold_ms", ms(c.t.do("sim.field_costs", root, func(int) {
		opt := sim.DefaultOptions()
		for _, arch := range dse.AllArchs() {
			for _, curve := range dse.AllCurves() {
				if !(dse.Config{Arch: arch, Curve: curve}).Valid() {
					continue
				}
				bits, _ := strconv.Atoi(curve[2:])
				k := (bits + 31) / 32
				if sim.IsPrimeCurve(curve) {
					sim.PrimeFieldCosts(arch, curve, bits, k, opt)
				} else {
					sim.BinaryFieldCosts(arch, curve, bits, k, opt)
				}
			}
		}
	})))

	var profPrime, profBinary time.Duration
	var prices []float64
	var allocB, allocN uint64
	hits0, misses0 := sim.CensusMemoStats()
	census := c.t.start("sim.census", root)
	for _, cfg := range cfgs {
		b0, n0 := heapCounts()
		_, m0 := sim.CensusMemoStats()
		id := c.t.start("sim.run", census)
		_, err := sim.Run(cfg.Arch, cfg.Curve, cfg.Opt)
		d := c.t.end(id)
		_, m1 := sim.CensusMemoStats()
		if err != nil {
			c.fail("sim.Run %s: %v", cfg.Key(), err)
		}
		if m1 == m0 {
			c.t.spans[id-1].Name = "sim.price"
			prices = append(prices, float64(d))
			continue
		}
		b1, n1 := heapCounts()
		allocB, allocN = allocB+b1-b0, allocN+n1-n0
		if sim.IsPrimeCurve(cfg.Curve) {
			c.t.spans[id-1].Name = "sim.census_profile.prime"
			profPrime += d
		} else {
			c.t.spans[id-1].Name = "sim.census_profile.binary"
			profBinary += d
		}
	}
	c.t.end(census)
	hits1, misses1 := sim.CensusMemoStats()
	hits, misses := hits1-hits0, misses1-misses0
	c.set("sim.census_profile_ms", ms(profPrime+profBinary))
	c.set("sim.census_profile_prime_ms", ms(profPrime))
	c.set("sim.census_profile_binary_ms", ms(profBinary))
	c.set("sim.census_profiles", float64(misses))
	c.set("sim.census_hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	c.set("sim.census_alloc_mb", float64(allocB)/(1<<20))
	c.set("sim.census_allocs", float64(allocN))
	c.set("sim.price_us", median(prices)/1e3)

	var res *dse.SweepResult
	var err error
	c.t.do("dse.sweep", root, func(int) {
		res, err = dse.Sweep(spec, dse.SweepOptions{Workers: dseWorkers, Cache: dse.NewCache()})
	})
	if err != nil {
		c.fail("dse.Sweep: %v", err)
		return
	}
	c.set("dse.pareto_ms", ms(c.medianOf(5, "dse.pareto", root, func() { dse.ParetoPerLevel(res.Points) })))
	var js []byte
	c.t.do("dse.json_encode", root, func(int) { js, err = res.MarshalJSON() })
	if err != nil {
		c.fail("MarshalJSON: %v", err)
	}
	c.checkSweepSHA("cold-sweep re-enactment", js)

	// Keys rendered from scratch: hand-built configs carry no memoized key.
	fresh := make([]dse.Config, len(cfgs))
	for i, cfg := range cfgs {
		fresh[i] = dse.Config{Arch: cfg.Arch, Curve: cfg.Curve, Opt: cfg.Opt}
	}
	keys := c.medianOf(5, "dse.key", root, func() {
		for _, cfg := range fresh {
			_ = cfg.Key()
		}
	})
	c.set("dse.key_ns", float64(keys)/float64(len(fresh)))

	c.probes(root)
}

// warmRestart re-enacts `dse -sweep -cache-dir` over a filled store: the
// first load (which computes the model fingerprint), steady loads of
// the same store, assembly from the loaded cache, JSON encoding, and the
// store encoding a flush would write.
func (c *child) warmRestart(root int) {
	path := dse.DiskCachePath(c.store)
	fi, err := os.Stat(path)
	if err != nil {
		c.fail("store: %v", err)
		return
	}
	c.set("dse.store_bytes", float64(fi.Size()))

	_, m0 := sim.CensusMemoStats()
	cache := dse.NewCache()
	var n int
	first := c.t.do("dse.store_load_first", root, func(int) { n, err = cache.LoadFile(path) })
	_, m1 := sim.CensusMemoStats()
	if err != nil || n != gridConfigs {
		c.fail("first LoadFile: %d entries, %v", n, err)
	}
	var decodes, allocs []float64
	for i := 0; i < 5; i++ {
		fresh := dse.NewCache()
		_, a0 := heapCounts()
		d := c.t.do("dse.store_load", root, func(int) { _, err = fresh.LoadFile(path) })
		_, a1 := heapCounts()
		if err != nil {
			c.fail("LoadFile: %v", err)
		}
		decodes, allocs = append(decodes, float64(d)), append(allocs, float64(a1-a0))
	}
	decode := time.Duration(median(decodes))
	c.set("dse.fingerprint_ms", ms(first-decode))
	c.set("dse.fingerprint_profiles", float64(m1-m0))
	c.set("dse.store_decode_ms", ms(decode))
	c.set("dse.store_decode_allocs", median(allocs))
	c.set("dse.store_entries", float64(n))

	var res *dse.SweepResult
	c.set("dse.assemble_ms", ms(c.t.do("dse.assemble", root, func(int) {
		res, err = dse.Sweep(fullSpec(), dse.SweepOptions{Workers: dseWorkers, Cache: cache})
	})))
	if err != nil {
		c.fail("dse.Sweep over the loaded cache: %v", err)
		return
	}
	c.set("dse.cache_hit_ratio", float64(res.CacheHits)/float64(max(res.CacheHits+res.CacheMisses, 1)))
	var js []byte
	c.set("dse.json_encode_ms", ms(c.medianOf(3, "dse.json_encode", root, func() { js, err = res.MarshalJSON() })))
	if err != nil {
		c.fail("MarshalJSON: %v", err)
	}
	c.checkSweepSHA("warm-restart re-enactment", js)

	out := filepath.Join(c.store, "encode-check.jsonl")
	c.set("dse.store_encode_ms", ms(c.t.do("dse.store_encode", root, func(int) { _, err = cache.SaveFile(out) })))
	defer os.Remove(out)
	want, err1 := os.ReadFile(path)
	got, err2 := os.ReadFile(out)
	if err != nil || err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		c.fail("store re-encoding differs from the store dse wrote (%v, %v, %v)", err, err1, err2)
	}
}

// liveSweeps are the experiments that run live sweeps.
var liveSweeps = []string{"bestdesign", "ffauwidth", "handshake"}

// reportAll re-enacts `dse -all`: every experiment rendered in order.
func (c *child) reportAll(root int) {
	_, m0 := sim.CensusMemoStats()
	per := map[string]time.Duration{}
	var parts []string
	total := c.t.do("report.all", root, func(all int) {
		for _, name := range report.Names() {
			per[name] = c.t.do("report."+name, all, func(int) {
				out, ok, err := report.ByName(name)
				if !ok || err != nil {
					c.fail("report %s: ok=%v err=%v", name, ok, err)
				}
				parts = append(parts, out)
			})
		}
	})
	_, m1 := sim.CensusMemoStats()
	if sha([]byte(strings.Join(parts, "\n"))) != c.ref {
		c.fail("report re-enactment differs from dse -all output")
	}
	c.set("report.render_ms", ms(total))
	c.set("report.table7_1_ms", ms(per["table7.1"]))
	c.set("report.table7_2_ms", ms(per["table7.2"]))
	c.set("report.handshake_ms", ms(per["handshake"]))
	var live time.Duration
	for _, n := range liveSweeps {
		live += per[n]
	}
	c.set("report.live_sweeps_ms", ms(live))
	c.set("report.census_profiles", float64(m1-m0))
}

// adaptiveFrontier re-enacts `dse -sweep -adaptive`: the explorer on a
// cold census memo, then the explorer and the exhaustive sweep again
// with the memo warm and fresh result caches.
func (c *child) adaptiveFrontier(root int) {
	spec := fullSpec()
	opts := func() dse.SweepOptions { return dse.SweepOptions{Workers: dseWorkers, Cache: dse.NewCache()} }
	var ar *dse.AdaptiveResult
	var err error
	c.set("dse.adaptive_ms", ms(c.t.do("dse.adaptive", root, func(int) { ar, err = dse.AdaptiveSweep(spec, opts()) })))
	if err != nil {
		c.fail("AdaptiveSweep: %v", err)
		return
	}
	c.set("dse.adaptive_warm_ms", ms(c.t.do("dse.adaptive_warm", root, func(int) { _, err = dse.AdaptiveSweep(spec, opts()) })))
	if err != nil {
		c.fail("AdaptiveSweep (warm): %v", err)
	}
	var res *dse.SweepResult
	c.set("dse.sweep_warm_ms", ms(c.t.do("dse.sweep_warm", root, func(int) { res, err = dse.Sweep(spec, opts()) })))
	if err != nil {
		c.fail("Sweep (warm): %v", err)
		return
	}
	frontierPoints := 0
	for _, lf := range ar.Frontiers {
		frontierPoints += len(lf.Points)
	}
	c.set("dse.adaptive_evaluated", float64(ar.Evaluated))
	c.set("dse.adaptive_evaluated_ratio", float64(ar.Evaluated)/float64(max(ar.GridConfigs, 1)))
	c.set("dse.adaptive_rounds", float64(ar.Rounds))
	c.set("dse.adaptive_frontier_yield", float64(frontierPoints)/float64(max(ar.Evaluated, 1)))

	js, err := res.MarshalJSON()
	if err != nil {
		c.fail("MarshalJSON: %v", err)
	}
	c.checkSweepSHA("exhaustive sweep in the adaptive re-enactment", js)
	ajs, err := ar.MarshalJSON()
	if err != nil {
		c.fail("adaptive MarshalJSON: %v", err)
	}
	_, adoc, err1 := normalizeAdaptive(ajs)
	_, sdoc, err2 := normalizeSweep(js)
	if err1 != nil || err2 != nil || frontierKey(adoc) != frontierKey(sdoc) {
		c.fail("adaptive frontiers differ from the exhaustive sweep's (%v, %v)", err1, err2)
	}
}
