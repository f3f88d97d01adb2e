package dse

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// SweepOptions tunes how a sweep executes.
type SweepOptions struct {
	// Workers is the worker-pool width; 0 means GOMAXPROCS.
	Workers int
	// Cache is the memoizing result cache; nil means the process-wide
	// shared cache.
	Cache *Cache
	// CacheDir, when non-empty, makes the result cache persistent:
	// previously saved results are loaded from CacheDir before the sweep
	// (counting as cache hits) and the merged cache is flushed back
	// afterwards, so repeating a sweep is near-free even across process
	// restarts.
	CacheDir string
	// Progress, when non-nil, streams per-point completion for long
	// sweeps: it is invoked once per configuration, in deterministic
	// specification order regardless of the worker count, with the
	// number of points completed so far, the total, and whether that
	// point was served from cache. Calls are serialized and ordered, but
	// run outside the sweep's internal bookkeeping lock: a slow callback
	// (a renderer, a journal write) delays later callbacks, not the
	// worker pool.
	Progress func(done, total int, cached bool)
	// Metrics, when non-nil, records sweep telemetry into the registry
	// (per-point simulate-vs-cached durations, worker-pool occupancy,
	// expansion and store load/flush timing) and fills SweepResult.Timing.
	// Telemetry is carried out-of-band: results, keys, hashes and store
	// bytes are identical with and without it.
	Metrics *telemetry.Registry
	// Journal, when non-nil, receives one JSONL lifecycle event per
	// sweep stage: sweep_start, store_load, one point event per
	// configuration in specification order (with duration, cache-hit
	// flag, and the error for a failed point), store_flush (including
	// the partial flush of a failed sweep), and sweep_end. Best-effort:
	// journal write errors never fail the sweep (check Journal.Err).
	Journal *telemetry.Journal
	// Adaptive switches Sweep from exhaustive grid evaluation to the
	// coarse-to-fine Pareto-guided exploration in adaptive.go: a coarse
	// sub-grid is priced first, then only neighborhoods of the live
	// per-security-level frontiers are refined, per each axis's declared
	// Strategy. The returned SweepResult holds only the evaluated
	// points (a small fraction of the grid); call AdaptiveSweep directly
	// for the frontiers and exploration economics.
	Adaptive bool
	// AdaptiveBudget, when positive, caps how many unique
	// configurations an adaptive exploration may evaluate; the run stops
	// (reporting BudgetHit) once the cap is reached. Zero means
	// unlimited — the exploration stops when a round moves no frontier.
	AdaptiveBudget int
}

// SweepResult is the outcome of exploring one SweepSpec.
type SweepResult struct {
	Spec SweepSpec

	// Points holds one evaluated point per unique configuration, in
	// deterministic specification order (independent of Workers).
	Points []Point

	RawPoints int // size of the un-pruned cross-product
	Configs   int // unique valid configurations this run evaluated
	Workers   int // pool width actually used

	// Cache accounting for this sweep only (not cumulative; the cache's
	// own Stats method is the process-cumulative view).
	CacheHits   uint64
	CacheMisses uint64

	// Disk-cache accounting when SweepOptions.CacheDir was set.
	DiskLoaded int // entries loaded from the persistent store
	DiskSaved  int // entries flushed back to it
	// DiskUnchanged reports that the flush was skipped because the store
	// already held exactly the cache content (nothing was written, so
	// DiskSaved is 0).
	DiskUnchanged bool

	// Timing is the wall-clock breakdown of this sweep, present only
	// when SweepOptions.Metrics was set. It is carried alongside the
	// results, never inside them: an uninstrumented sweep's JSON is
	// byte-identical to the pre-telemetry wire form.
	Timing *SweepTiming
}

// Sweep explores the spec's cross-product on a worker pool. Each
// unique configuration is simulated (or served from cache) exactly once;
// results are assembled in specification order so output is byte-identical
// for any worker count.
func Sweep(spec SweepSpec, opt SweepOptions) (*SweepResult, error) {
	if opt.Adaptive {
		ar, err := AdaptiveSweep(spec, opt)
		if err != nil {
			return nil, err
		}
		return ar.Result, nil
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}

	// telOn gates every timing capture; with neither a registry nor a
	// journal, the sweep takes no clock readings at all.
	telOn := opt.Metrics != nil || opt.Journal != nil
	var sweepStart time.Time
	if telOn {
		sweepStart = time.Now()
	}
	cfgs := spec.Expand()
	// Expansion economics: raw − pruned − unique is what canonical
	// deduplication collapsed.
	meta := sweepMeta{start: sweepStart, unique: len(cfgs), lifecycle: true}
	if telOn {
		meta.expandDur = time.Since(sweepStart)
		meta.raw = spec.RawPoints()
		meta.pruned = spec.PrunedPoints()
		meta.deduped = meta.raw - meta.pruned - meta.unique
	}
	return sweepConfigs(spec, cfgs, opt, meta)
}

// sweepMeta carries the expansion-stage context from Sweep into the
// execution core, and lets the adaptive loop run that core once per
// round without each round masquerading as a standalone sweep:
// lifecycle gates the per-sweep journal events (sweep_start/sweep_end)
// and the once-per-sweep counters (sweep.runs, dse.expand.*), and the
// histogram pointers, when non-nil, accumulate per-point durations
// across calls so a multi-round run reports one cumulative
// simulate-vs-cached split.
type sweepMeta struct {
	start                        time.Time
	expandDur                    time.Duration
	raw, pruned, deduped, unique int
	lifecycle                    bool
	simHist, cachedHist          *telemetry.Histogram
	// storeSynced asserts the store already holds exactly this cache's
	// entries at entry (a previous adaptive round flushed or verified
	// it), so a round that loads nothing new and simulates nothing can
	// skip its flush. LoadFile counts only fresh inserts, making the
	// cache.Len() == diskLoaded check unprovable from round 2 on.
	storeSynced bool
}

// sweepConfigs evaluates an already-expanded configuration list on the
// worker pool: store load, cached-or-simulated pricing with ordered
// progress/journal delivery, and store flush. Sweep calls it once with
// the spec's full expansion; AdaptiveSweep calls it once
// per refinement round with that round's candidates.
func sweepConfigs(spec SweepSpec, cfgs []Config, opt SweepOptions, meta sweepMeta) (*SweepResult, error) {
	telOn := opt.Metrics != nil || opt.Journal != nil
	sweepStart := meta.start
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) && len(cfgs) > 0 {
		workers = len(cfgs)
	}
	if opt.Metrics != nil {
		opt.Metrics.Gauge("sweep.configs").Set(int64(len(cfgs)))
		opt.Metrics.Gauge("sweep.workers").Set(int64(workers))
		if meta.lifecycle {
			opt.Metrics.Histogram("sweep.expand").Observe(meta.expandDur)
			opt.Metrics.Counter("dse.expand.raw").Add(int64(meta.raw))
			opt.Metrics.Counter("dse.expand.pruned").Add(int64(meta.pruned))
			opt.Metrics.Counter("dse.expand.deduped").Add(int64(meta.deduped))
			opt.Metrics.Counter("dse.expand.unique").Add(int64(meta.unique))
		}
	}
	if opt.Journal != nil && meta.lifecycle {
		opt.Journal.Emit("sweep_start", map[string]any{
			"configs": len(cfgs), "rawPoints": meta.raw, "workers": workers,
			"pruned": meta.pruned, "deduped": meta.deduped, "unique": meta.unique,
		})
	}

	cache := opt.Cache
	if cache == nil {
		cache = sharedCache
	}
	var diskLoaded int
	var loadSeconds float64
	var loadBytes int64
	if opt.CacheDir != "" {
		path := DiskCachePath(opt.CacheDir)
		var start time.Time
		if telOn {
			start = time.Now()
		}
		var err error
		diskLoaded, err = cache.LoadFile(path)
		if err != nil {
			return nil, err
		}
		// A cold sweep has no store yet; LoadFile treats that as zero
		// entries, and the journal/metrics skip it too rather than record
		// a phantom load.
		if size := fileSize(path); telOn && (diskLoaded > 0 || size > 0) {
			d := time.Since(start)
			loadSeconds = d.Seconds()
			loadBytes = size
			if opt.Metrics != nil {
				opt.Metrics.Histogram("store.load").Observe(d)
				opt.Metrics.Counter("store.load.entries").Add(int64(diskLoaded))
				opt.Metrics.Counter("store.load.bytes").Add(size)
			}
			opt.Journal.Emit("store_load", map[string]any{
				"path": path, "entries": diskLoaded, "seconds": d.Seconds(), "bytes": size,
			})
		}
	}

	points := make([]Point, len(cfgs))
	errs := make([]error, len(cfgs))
	var hits, misses atomic.Uint64

	// Per-sweep point-duration histograms feeding SweepResult.Timing
	// (the registry's sweep.point.* twins accumulate across sweeps).
	// Adaptive rounds share one histogram pair across calls via the
	// meta pointers; a plain sweep uses a fresh local pair.
	simHist, cachedHist := meta.simHist, meta.cachedHist
	if simHist == nil {
		simHist, cachedHist = &telemetry.Histogram{}, &telemetry.Histogram{}
	}
	var durNS []int64
	if telOn {
		durNS = make([]int64, len(cfgs))
	}
	var busy *telemetry.Gauge
	if opt.Metrics != nil {
		busy = opt.Metrics.Gauge("sweep.workers.busy")
	}

	// Progress/journal bookkeeping: completions arrive in worker order,
	// but delivery fires in specification order — each finished point is
	// parked until every earlier point has finished too, so the (done,
	// total, cached) stream and the journal's point events are
	// deterministic for any worker count. The lock guards only the
	// bookkeeping; the callbacks themselves run outside it (one
	// deliverer at a time drains the ready prefix), so a slow Progress
	// callback or journal write delays later deliveries, never the
	// worker pool.
	wantDelivery := opt.Progress != nil || opt.Journal != nil
	var progressMu sync.Mutex
	finished := make([]bool, len(cfgs))
	wasHit := make([]bool, len(cfgs))
	nextToReport := 0
	delivering := false
	deliver := func(j int) {
		if opt.Journal != nil {
			f := map[string]any{
				"i": j + 1, "of": len(cfgs), "key": cfgs[j].Key(),
				"cached": wasHit[j], "seconds": float64(durNS[j]) / 1e9,
			}
			if errs[j] != nil {
				f["error"] = errs[j].Error()
			}
			opt.Journal.Emit("point", f)
		}
		if opt.Progress != nil {
			opt.Progress(j+1, len(cfgs), wasHit[j])
		}
	}
	reportProgress := func(i int, hit bool) {
		if !wantDelivery {
			return
		}
		progressMu.Lock()
		finished[i] = true
		wasHit[i] = hit
		if delivering {
			// Another worker is mid-delivery outside the lock; it will
			// pick this point up on its next drain pass.
			progressMu.Unlock()
			return
		}
		delivering = true
		for {
			start := nextToReport
			for nextToReport < len(cfgs) && finished[nextToReport] {
				nextToReport++
			}
			ready := nextToReport
			if ready == start {
				delivering = false
				progressMu.Unlock()
				return
			}
			progressMu.Unlock()
			for j := start; j < ready; j++ {
				deliver(j)
			}
			progressMu.Lock()
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				cfg := cfgs[i]
				if busy != nil {
					busy.Add(1)
				}
				var pointStart time.Time
				if telOn {
					pointStart = time.Now()
				}
				res, hit, err := cache.GetOrRun(cfg)
				if telOn {
					d := time.Since(pointStart)
					durNS[i] = int64(d)
					if hit {
						cachedHist.Observe(d)
					} else {
						simHist.Observe(d)
					}
					if opt.Metrics != nil {
						name := "sweep.point.simulate"
						if hit {
							name = "sweep.point.cached"
						}
						opt.Metrics.Histogram(name).Observe(d)
					}
				}
				if busy != nil {
					busy.Add(-1)
				}
				if hit {
					hits.Add(1)
				} else {
					misses.Add(1)
				}
				if err != nil {
					errs[i] = fmt.Errorf("dse: %s: %w", cfg.Key(), err)
					reportProgress(i, hit)
					continue
				}
				points[i] = newPoint(cfg, res)
				reportProgress(i, hit)
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	var sweepErr error
	for _, err := range errs {
		if err != nil {
			sweepErr = err
			break
		}
	}

	// The flush happens even when the sweep failed: every successfully
	// simulated point is persisted before the error propagates, so a
	// sweep that dies on its last configuration costs one retry, not a
	// full re-simulation. (SaveFile never persists error entries.)
	var diskSaved int
	var diskUnchanged bool
	var flushErr error
	var flushSeconds float64
	var flushBytes int64
	if opt.CacheDir != "" {
		path := DiskCachePath(opt.CacheDir)
		// When the store already satisfied the whole sweep and the
		// in-memory cache holds nothing beyond what it served, the
		// flush would rewrite identical bytes — skip it and report an
		// unchanged store (not a phantom save).
		if sweepErr == nil && misses.Load() == 0 &&
			(cache.Len() == diskLoaded || (meta.storeSynced && diskLoaded == 0)) {
			diskUnchanged = true
			opt.Journal.Emit("store_flush", map[string]any{
				"path": path, "entries": 0, "unchanged": true,
			})
		} else {
			var start time.Time
			if telOn {
				start = time.Now()
			}
			var n int
			n, flushErr = cache.SaveFile(path)
			if telOn {
				d := time.Since(start)
				flushSeconds = d.Seconds()
				flushBytes = fileSize(path)
				if opt.Metrics != nil {
					opt.Metrics.Histogram("store.flush").Observe(d)
					opt.Metrics.Counter("store.flush.entries").Add(int64(n))
					opt.Metrics.Counter("store.flush.bytes").Add(flushBytes)
				}
				f := map[string]any{
					"path": path, "entries": n, "seconds": d.Seconds(), "bytes": flushBytes,
				}
				if sweepErr != nil {
					// A failed sweep still flushes its completed points;
					// the journal records that partial flush explicitly.
					f["partial"] = true
				}
				if flushErr != nil {
					f["error"] = flushErr.Error()
				}
				opt.Journal.Emit("store_flush", f)
			}
			if flushErr == nil {
				diskSaved = n
			}
		}
	}

	// Resolve the final error before the sweep_end event so the journal
	// records exactly what the caller sees.
	finalErr := sweepErr
	if flushErr != nil {
		if sweepErr != nil {
			finalErr = fmt.Errorf("%w (and flushing partial results failed: %v)", sweepErr, flushErr)
		} else {
			finalErr = flushErr
		}
	}
	if opt.Metrics != nil {
		if meta.lifecycle {
			opt.Metrics.Counter("sweep.runs").Inc()
		}
		opt.Metrics.Counter("sweep.points.simulated").Add(int64(misses.Load()))
		opt.Metrics.Counter("sweep.points.cached").Add(int64(hits.Load()))
	}
	if opt.Journal != nil && meta.lifecycle {
		f := map[string]any{
			"configs": len(cfgs), "cacheHits": hits.Load(), "cacheMisses": misses.Load(),
			"seconds": time.Since(sweepStart).Seconds(),
		}
		if finalErr != nil {
			f["error"] = finalErr.Error()
		}
		opt.Journal.Emit("sweep_end", f)
	}
	if finalErr != nil {
		return nil, finalErr
	}

	var timing *SweepTiming
	if opt.Metrics != nil {
		timing = &SweepTiming{
			TotalSeconds:  time.Since(sweepStart).Seconds(),
			ExpandSeconds: meta.expandDur.Seconds(),
			LoadSeconds:   loadSeconds,
			LoadBytes:     loadBytes,
			FlushSeconds:  flushSeconds,
			FlushBytes:    flushBytes,
			Simulated:     simHist.Snapshot(),
			Cached:        cachedHist.Snapshot(),
		}
	}

	return &SweepResult{
		Spec:          spec,
		Points:        points,
		RawPoints:     spec.RawPoints(),
		Configs:       len(cfgs),
		Workers:       workers,
		CacheHits:     hits.Load(),
		CacheMisses:   misses.Load(),
		DiskLoaded:    diskLoaded,
		DiskSaved:     diskSaved,
		DiskUnchanged: diskUnchanged,
		Timing:        timing,
	}, nil
}
