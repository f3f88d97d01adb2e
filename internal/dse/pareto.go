package dse

import (
	"cmp"
	"slices"
	"sort"
)

// dominates reports whether a is at least as good as b on both axes and
// strictly better on at least one (lower energy, lower latency).
func dominates(a, b Point) bool {
	if a.EnergyJ > b.EnergyJ || a.TimeS > b.TimeS {
		return false
	}
	return a.EnergyJ < b.EnergyJ || a.TimeS < b.TimeS
}

// Pareto returns the energy-vs-latency Pareto frontier of the point set:
// the subset not dominated by any other point, sorted by ascending
// latency (and ascending energy for equal latency). The input is not
// modified. Duplicate-metric points all survive (none strictly dominates
// the other).
func Pareto(points []Point) []Point {
	return pick(points, paretoFront(points, nil))
}

// frontKey is one frontier candidate as the sort sees it: its latency
// and energy, and its index into the point slice.
type frontKey struct {
	t, e float64
	i    int
}

// paretoFront returns the indices into points of the frontier among the
// candidates idx (every point when idx is nil; idx must be ascending),
// in frontier order: ascending latency, then ascending energy, then
// input order — the order a stable sort by (latency, energy) gives.
// It sorts small keys rather than whole points, which carry their full
// simulation result.
func paretoFront(points []Point, idx []int) []int {
	n := len(idx)
	if idx == nil {
		n = len(points)
	}
	keys := make([]frontKey, n)
	for k := range keys {
		i := k
		if idx != nil {
			i = idx[k]
		}
		keys[k] = frontKey{t: points[i].TimeS, e: points[i].EnergyJ, i: i}
	}
	slices.SortFunc(keys, func(a, b frontKey) int {
		return cmp.Or(cmp.Compare(a.t, b.t), cmp.Compare(a.e, b.e), a.i-b.i)
	})
	// After sorting by latency, a point is on the frontier iff its
	// energy is strictly below every earlier point's (single pass),
	// with ties on both axes kept.
	var out []int
	var bestE, lastT float64
	for k, p := range keys {
		if k == 0 || p.e < bestE || (p.e == bestE && p.t == lastT) {
			out = append(out, p.i)
			bestE, lastT = p.e, p.t
		}
	}
	return out
}

// pick copies the indexed points out of the point slice, in index
// order (nil for no indices).
func pick(points []Point, idx []int) []Point {
	var out []Point
	if len(idx) > 0 {
		out = make([]Point, len(idx))
		for k, i := range idx {
			out[k] = points[i]
		}
	}
	return out
}

// LevelFrontier is the Pareto frontier within one security level.
type LevelFrontier struct {
	Level        int
	SecurityBits int
	Points       []Point
}

// levelGroup is one security level's share of the point cloud, as
// produced by perLevel: the indices of its points, ascending.
type levelGroup struct {
	level, bits int
	idx         []int
}

// perLevel groups a point cloud by the paper's security level — the
// shared walk under every per-level analysis: points with no known
// level (SecLevel == 0) are dropped, levels come back ascending, and
// each level's points keep their input order.
func perLevel(points []Point) []levelGroup {
	var out []levelGroup
	for i := range points {
		l := points[i].SecLevel
		if l == 0 {
			continue
		}
		g := slices.IndexFunc(out, func(g levelGroup) bool { return g.level == l })
		if g < 0 {
			g = len(out)
			out = append(out, levelGroup{level: l, bits: points[i].SecurityBits})
		}
		out[g].idx = append(out[g].idx, i)
	}
	slices.SortFunc(out, func(a, b levelGroup) int { return a.level - b.level })
	return out
}

// ParetoPerLevel computes the energy-vs-latency frontier separately for
// each of the paper's security levels — the comparison that matters when
// the key strength is a requirement rather than a knob. Points with no
// known level are ignored; levels are returned ascending.
func ParetoPerLevel(points []Point) []LevelFrontier {
	groups := perLevel(points)
	out := make([]LevelFrontier, 0, len(groups))
	for _, g := range groups {
		out = append(out, LevelFrontier{
			Level:        g.level,
			SecurityBits: g.bits,
			Points:       pick(points, paretoFront(points, g.idx)),
		})
	}
	return out
}

// ByEDP returns the points sorted by ascending energy-delay product — the
// combined-figure-of-merit ranking. Ties break toward lower energy, then
// the canonical config key for full determinism.
func ByEDP(points []Point) []Point {
	out := make([]Point, len(points))
	copy(out, points)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].EDP != out[j].EDP {
			return out[i].EDP < out[j].EDP
		}
		if out[i].EnergyJ != out[j].EnergyJ {
			return out[i].EnergyJ < out[j].EnergyJ
		}
		return out[i].Config.Key() < out[j].Config.Key()
	})
	return out
}

// BestPerLevel holds the minimum-energy and minimum-latency design points
// for one of the paper's five security levels.
type BestPerLevel struct {
	Level        int
	SecurityBits int
	MinEnergy    Point
	MinLatency   Point
	MinEDP       Point
}

// BestPerSecurity returns, for each security level present in the point
// set, the energy-, latency- and EDP-optimal configurations — the paper's
// "best design point per key strength" comparison, computed live. Levels
// are returned in ascending order.
func BestPerSecurity(points []Point) []BestPerLevel {
	groups := perLevel(points)
	out := make([]BestPerLevel, 0, len(groups))
	for _, g := range groups {
		minE, minT, minEDP := &points[g.idx[0]], &points[g.idx[0]], &points[g.idx[0]]
		for _, i := range g.idx[1:] {
			p := &points[i]
			if better(p.EnergyJ, minE.EnergyJ, p, minE) {
				minE = p
			}
			if better(p.TimeS, minT.TimeS, p, minT) {
				minT = p
			}
			if better(p.EDP, minEDP.EDP, p, minEDP) {
				minEDP = p
			}
		}
		out = append(out, BestPerLevel{Level: g.level, SecurityBits: g.bits,
			MinEnergy: *minE, MinLatency: *minT, MinEDP: *minEDP})
	}
	return out
}

// better reports whether candidate metric mc beats incumbent mi, breaking
// exact ties on the canonical key so selection is deterministic.
func better(mc, mi float64, c, i *Point) bool {
	if mc != mi {
		return mc < mi
	}
	return c.Config.Key() < i.Config.Key()
}
