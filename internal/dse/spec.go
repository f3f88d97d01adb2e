package dse

import (
	"fmt"

	"repro/internal/sim"
)

// SweepSpec declares a region of the design space as sets per axis. The
// cross-product of all axes is explored; points whose dimension values
// fail a registry cross-constraint (Monte on binary fields, Billie on
// prime fields) are pruned, and points that canonicalize to the same
// physical configuration (e.g. cache-size variants of an uncached core)
// are deduplicated, first occurrence winning.
//
// The typed fields are the public surface; everything behind them —
// defaults, domains, expansion order, validity, canonicalization — is
// driven by the axis registry in axes.go. The dimension fields (Archs,
// Curves) and the option fields are all registry axes alike: a new
// option axis is one slice field here plus one registry entry.
type SweepSpec struct {
	// Dimension axes: what is simulated.
	Archs  []sim.Arch
	Curves []string

	// Cache geometry axes (cached architectures only).
	CacheBytes []int  // I-cache capacities; nil means {4096}
	Prefetch   []bool // stream-buffer prefetcher; nil means {false}
	IdealCache []bool // never-miss cache bound (Figure 7.11); nil means {false}

	// Accelerator axes.
	DoubleBuffer []bool // Monte DMA/compute overlap; nil means {true}
	MonteWidths  []int  // Monte FFAU datapath widths (Table 7.3); nil means {32}
	BillieDigits []int  // Billie digit-serial widths; nil means {3}

	// GateAccelIdle sweeps the Chapter 8 idle-gating knob; nil means
	// {false}.
	GateAccelIdle []bool

	// CacheLineBytes sweeps the I-cache line size — a knob the paper
	// fixes at 16 bytes (Section 5.3); nil means {16}, which
	// canonicalizes to an elided key token so every pre-axis hash is
	// unchanged.
	CacheLineBytes []int

	// Workloads sweeps the priced scenario (sim.Workloads() names); nil
	// means the default Sign+Verify workload only, which keeps every
	// canonical hash identical to a spec without the axis.
	Workloads []string
}

// DefaultSweep is the paper's headline grid: every architecture × every
// curve at the default knob settings (4 KB cache, no prefetch, double
// buffering on, digit size 3, datapath width 32, 16-byte lines).
func DefaultSweep() SweepSpec {
	return SweepSpec{
		Archs:  AllArchs(),
		Curves: AllCurves(),
	}
}

// FullSweep is the full design-space grid: 10 curves × 5 architectures
// with cache (1–16 KB, prefetcher on/off, ideal-cache bound, 16–64 B
// lines), Monte double-buffering and datapath width (8–64 bit), Billie
// digit size (1–8), and accelerator idle gating — the complete study
// behind the paper's evaluation chapter, including the Table 7.3 width
// axis, the Figure 7.11 / Chapter 8 what-if knobs, and the line-size
// axis the paper only fixes, in one specification.
func FullSweep() SweepSpec {
	return SweepSpec{
		Archs:          AllArchs(),
		Curves:         AllCurves(),
		CacheBytes:     []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10},
		Prefetch:       []bool{false, true},
		IdealCache:     []bool{false, true},
		DoubleBuffer:   []bool{true, false},
		MonteWidths:    []int{8, 16, 32, 64},
		BillieDigits:   []int{1, 2, 3, 4, 5, 6, 7, 8},
		GateAccelIdle:  []bool{false, true},
		CacheLineBytes: []int{16, 32, 64},
	}
}

// normalized returns the spec with nil axes replaced by their defaults,
// as declared in the axis registry (dimension axes included: an empty
// Archs or Curves set means the full declared domain).
func (s SweepSpec) normalized() SweepSpec {
	for _, ax := range axes {
		ax.normalize(&s)
	}
	return s
}

// Validate rejects specs with out-of-model axis values before any
// simulation runs. Each axis value is checked against the same domain
// sim.Run validates with, so a value is rejected identically whether it
// arrives through a sweep spec, a single simulation, or a CLI flag.
// Axes are checked in registry order, so dimension errors (an unknown
// curve) surface before option errors.
func (s SweepSpec) Validate() error {
	n := s.normalized()
	for _, ax := range axes {
		if ax.check == nil {
			continue
		}
		for _, v := range ax.values(&n) {
			if err := ax.check(v); err != nil {
				return fmt.Errorf("dse: %w", err)
			}
		}
	}
	return nil
}

// RawPoints returns the size of the un-pruned cross-product — the number
// of raw grid points the spec describes before validity pruning and
// canonical deduplication.
func (s SweepSpec) RawPoints() int {
	n := s.normalized()
	total := 1
	for _, ax := range axes {
		total *= len(ax.values(&n))
	}
	return total
}

// PrunedPoints returns how many raw grid points the spec loses to
// validity pruning alone: each dimension point rejected by a registry
// cross-constraint (Monte on a binary curve, Billie on a prime curve)
// drops a full per-pair option grid. RawPoints = PrunedPoints +
// deduplicated + unique.
func (s SweepSpec) PrunedPoints() int {
	n := s.normalized()
	vals := make([][]axisValue, len(axes))
	perPair := 1
	for i, ax := range axes {
		vals[i] = ax.values(&n)
		if !ax.Dimension {
			perPair *= len(vals[i])
		}
	}
	invalid := 0
	forEachDimension(vals, func(c *Config) {
		if !c.Valid() {
			invalid++
		}
	})
	return invalid * perPair
}

// forEachDimension runs the dimension-axis odometer over vals (indexed
// by registry position; only the dimension entries are read) in
// registry order, the last dimension varying fastest — arch-major,
// then curve, reproducing the historical nested-loop order. fn is
// called once per dimension point with a scratch config holding
// exactly those values; it must copy the config if it retains it.
func forEachDimension(vals [][]axisValue, fn func(c *Config)) {
	for _, i := range dimIdx {
		if len(vals[i]) == 0 {
			return
		}
	}
	idx := make([]int, len(dimIdx))
	// One scratch config for the whole walk: it escapes through the
	// registry closures, so hoisting it costs one allocation total.
	var scratch Config
	for {
		scratch = Config{}
		for k, i := range dimIdx {
			axes[i].set(&scratch, vals[i][idx[k]])
		}
		fn(&scratch)
		k := len(dimIdx) - 1
		for k >= 0 {
			idx[k]++
			if idx[k] < len(vals[dimIdx[k]]) {
				break
			}
			idx[k] = 0
			k--
		}
		if k < 0 {
			return
		}
	}
}

// Expand enumerates the spec's unique canonical configurations in
// deterministic specification order (the registry odometer: dimension
// axes first — arch-major, then curve — then the option axes in
// registry order with the last, the workload, varying fastest),
// pruning dimension points that fail a registry cross-constraint and
// deduplicating canonically identical configurations.
//
// The enumeration is factored by relevance rather than brute
// cross-product: for each architecture only the axes whose archRelevant
// bound admits it are run through the odometer, the rest stay pinned at
// their cleared zero values (which Canonical restores for them exactly
// as it would have collapsed a swept value). Per-axis value lists are
// also deduplicated up front by canonical effect (CacheBytes {0, 4096}
// is one point, not two). Baseline therefore explores its one real knob
// — the workload — instead of the full option grid, and the work is
// O(unique configs), not O(RawPoints). The test-only expandBrute
// (expand_test.go) keeps the plain odometer as the oracle; the
// equivalence tests prove both paths emit the identical slice, same
// members in the same first-occurrence order.
//
// Every emitted Config carries its rendered canonical key memoized, so
// downstream consumers (Sweep's dedup and cache lookups, store writes)
// never re-render it.
func (s SweepSpec) Expand() []Config {
	n := s.normalized()
	vals := make([][]axisValue, len(axes))
	for i, ax := range axes {
		vals[i] = dedupAxisValues(ax, ax.values(&n))
	}
	seen := make(map[string]bool)
	var out []Config
	buf := make([]byte, 0, keyBufCap)
	forEachFactored(vals, func(c *Config) {
		// Full canonicalization still runs per point: value-conditional
		// collapses (an ideal cache folding the prefetch and line axes)
		// are below the arch-level factoring, and the seen map absorbs
		// them.
		c.canonicalize()
		buf = c.appendKeyTo(buf[:0])
		if !seen[string(buf)] {
			cfg := *c
			cfg.key = string(buf)
			seen[cfg.key] = true
			out = append(out, cfg)
		}
	})
	return out
}

// forEachFactored walks the relevance-factored grid of vals (indexed by
// registry position): for every valid dimension point, in
// forEachDimension order, the cross-product of the option axes whose
// archRelevant bound admits the point's architecture, the last live
// axis varying fastest. The excluded axes stay pinned at their cleared
// zero values, which loses nothing: archRelevant bounds relevant, so
// Canonical would clear them anyway. fn receives a scratch config it
// may modify but must copy to retain.
func forEachFactored(vals [][]axisValue, fn func(c *Config)) {
	live := make([]int, 0, len(optIdx))
	idx := make([]int, len(axes))
	// One scratch config for the whole walk: it escapes through the
	// registry closures, so hoisting it costs one allocation total.
	var scratch Config
	lastArch := sim.Arch(-1)
	forEachDimension(vals, func(dim *Config) {
		if dim.Arch != lastArch {
			lastArch = dim.Arch
			live = live[:0]
			for _, i := range optIdx {
				ax := axes[i]
				if ax.archRelevant == nil || ax.archRelevant(dim.Arch) {
					live = append(live, i)
				}
			}
		}
		// Validity depends only on the dimension axes: evaluate the
		// registry cross-constraints once per dimension point, hoisted
		// out of the option grid entirely.
		if !dim.Valid() {
			return
		}
		for _, i := range optIdx {
			idx[i] = 0
		}
		for {
			scratch = *dim
			for _, i := range live {
				axes[i].set(&scratch, vals[i][idx[i]])
			}
			fn(&scratch)
			// Odometer step over the live axes only; the last is
			// least significant.
			k := len(live) - 1
			for k >= 0 {
				i := live[k]
				idx[i]++
				if idx[i] < len(vals[i]) {
					break
				}
				idx[i] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
	})
}

// dedupAxisValues collapses an axis's swept values by canonical effect:
// two values that set-then-canonicalize to the same config field (0 and
// 4096 for CacheBytes, 16 and the elided 0 for CacheLineBytes) are one
// grid point, first occurrence winning. The quadratic scan is fine —
// axis value lists are a handful of entries.
func dedupAxisValues(ax *Axis, vs []axisValue) []axisValue {
	canonOf := func(v axisValue) Config {
		var c Config
		ax.set(&c, v)
		if ax.canon != nil {
			ax.canon(&c)
		}
		return c
	}
	out := vs[:0:0]
	var reps []Config
	for _, v := range vs {
		c := canonOf(v)
		dup := false
		for _, r := range reps {
			if r == c {
				dup = true
				break
			}
		}
		if !dup {
			reps = append(reps, c)
			out = append(out, v)
		}
	}
	return out
}
