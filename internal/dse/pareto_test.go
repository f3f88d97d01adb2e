package dse

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/sim"
)

// fixture builds a Point with the given metrics and a distinguishing
// curve label (analysis passes only look at the metrics and config key).
func fixture(label string, energyJ, timeS float64) Point {
	return Point{
		Config:  Config{Arch: sim.Baseline, Curve: label},
		EnergyJ: energyJ,
		TimeS:   timeS,
		EDP:     energyJ * timeS,
	}
}

func labels(ps []Point) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Config.Curve
	}
	return out
}

func equalLabels(a []string, b ...string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestParetoHandBuilt(t *testing.T) {
	// d is dominated by b (worse on both); e is dominated by c (same
	// time, more energy). a, b, c trace the frontier.
	points := []Point{
		fixture("d", 5, 5),
		fixture("a", 1, 9),
		fixture("b", 3, 4),
		fixture("c", 8, 2),
		fixture("e", 9, 2),
	}
	got := labels(Pareto(points))
	if !equalLabels(got, "c", "b", "a") {
		t.Errorf("Pareto = %v, want [c b a] (ascending latency)", got)
	}
}

func TestParetoSinglePointAndEmpty(t *testing.T) {
	if got := Pareto(nil); len(got) != 0 {
		t.Errorf("Pareto(nil) = %v, want empty", got)
	}
	one := []Point{fixture("only", 2, 3)}
	if got := labels(Pareto(one)); !equalLabels(got, "only") {
		t.Errorf("Pareto(single) = %v, want [only]", got)
	}
}

func TestParetoKeepsExactTies(t *testing.T) {
	// Two points with identical metrics: neither strictly dominates, so
	// both stay on the frontier.
	points := []Point{
		fixture("twin1", 2, 2),
		fixture("twin2", 2, 2),
		fixture("loser", 3, 3),
	}
	got := labels(Pareto(points))
	if !equalLabels(got, "twin1", "twin2") {
		t.Errorf("Pareto = %v, want both twins and no loser", got)
	}
}

func TestParetoAllOnFrontier(t *testing.T) {
	// A strictly trading-off staircase: everything survives.
	points := []Point{
		fixture("x", 3, 1),
		fixture("y", 2, 2),
		fixture("z", 1, 3),
	}
	if got := labels(Pareto(points)); !equalLabels(got, "x", "y", "z") {
		t.Errorf("Pareto = %v, want [x y z]", got)
	}
}

func TestParetoDoesNotModifyInput(t *testing.T) {
	points := []Point{fixture("b", 2, 2), fixture("a", 1, 1)}
	Pareto(points)
	if points[0].Config.Curve != "b" || points[1].Config.Curve != "a" {
		t.Error("Pareto reordered its input slice")
	}
}

func TestParetoMatchesBruteForce(t *testing.T) {
	// The single-pass frontier scan must agree with the O(n^2)
	// definition via dominates() on a deterministic pseudo-random cloud.
	var points []Point
	seed := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>40) / float64(1<<24)
	}
	for i := 0; i < 200; i++ {
		points = append(points, fixture(fmt.Sprintf("p%03d", i), 1+next()*9, 1+next()*9))
	}
	var want []string
	for _, p := range points {
		dominated := false
		for _, q := range points {
			if dominates(q, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			want = append(want, p.Config.Curve)
		}
	}
	sort.Strings(want)
	got := labels(Pareto(points))
	sort.Strings(got)
	if !equalLabels(got, want...) {
		t.Errorf("Pareto disagrees with brute force:\n  got  %v\n  want %v", got, want)
	}
}

// refPareto is the frontier scan over whole points, stably sorted by
// (latency, energy): the reference for the index-sorting paretoFront.
func refPareto(points []Point) []Point {
	sorted := append([]Point(nil), points...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].TimeS != sorted[j].TimeS {
			return sorted[i].TimeS < sorted[j].TimeS
		}
		return sorted[i].EnergyJ < sorted[j].EnergyJ
	})
	var out []Point
	for i, p := range sorted {
		if i == 0 || p.EnergyJ < out[len(out)-1].EnergyJ ||
			(p.EnergyJ == out[len(out)-1].EnergyJ && p.TimeS == out[len(out)-1].TimeS) {
			out = append(out, p)
		}
	}
	return out
}

func TestParetoOrderMatchesStableSort(t *testing.T) {
	// Metrics drawn from a few values so that latency, energy and
	// both-axis ties are common: the frontiers, per level too, must
	// list the same points in the same order as the stable sort of
	// whole points.
	seed := uint64(7)
	next := func(n uint64) uint64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return (seed >> 33) % n
	}
	for round := 0; round < 50; round++ {
		var points []Point
		for i := 0; i < 60; i++ {
			l := int(next(4))
			points = append(points, leveled(fmt.Sprintf("p%02d", i), float64(1+next(6)), float64(1+next(6)), l, 96+l))
		}
		if got, want := labels(Pareto(points)), labels(refPareto(points)); !equalLabels(got, want...) {
			t.Fatalf("round %d: Pareto = %v, stable-sort reference %v", round, got, want)
		}
		byLevel := map[int][]Point{}
		for _, p := range points {
			if p.SecLevel != 0 {
				byLevel[p.SecLevel] = append(byLevel[p.SecLevel], p)
			}
		}
		fs := ParetoPerLevel(points)
		if len(fs) != len(byLevel) {
			t.Fatalf("round %d: %d levels, want %d", round, len(fs), len(byLevel))
		}
		for _, lf := range fs {
			if got, want := labels(lf.Points), labels(refPareto(byLevel[lf.Level])); !equalLabels(got, want...) {
				t.Fatalf("round %d level %d: frontier %v, stable-sort reference %v", round, lf.Level, got, want)
			}
		}
	}
}

func TestByEDP(t *testing.T) {
	points := []Point{
		fixture("worst", 4, 4), // EDP 16
		fixture("best", 1, 2),  // EDP 2
		fixture("mid", 3, 2),   // EDP 6
	}
	got := labels(ByEDP(points))
	if !equalLabels(got, "best", "mid", "worst") {
		t.Errorf("ByEDP = %v, want [best mid worst]", got)
	}
}

func TestBestPerSecurity(t *testing.T) {
	// Level 1 (P-192/B-163): one point cheapest in energy, another in
	// latency. Level 3 (P-256): single point wins everything.
	p1 := Point{Config: Config{Arch: sim.Baseline, Curve: "P-192"},
		EnergyJ: 1, TimeS: 9, EDP: 9, SecLevel: 1, SecurityBits: 96}
	p2 := Point{Config: Config{Arch: sim.WithBillie, Curve: "B-163"},
		EnergyJ: 5, TimeS: 2, EDP: 10, SecLevel: 1, SecurityBits: 96}
	p3 := Point{Config: Config{Arch: sim.WithMonte, Curve: "P-256"},
		EnergyJ: 3, TimeS: 3, EDP: 9, SecLevel: 3, SecurityBits: 128}
	unleveled := fixture("order", 0.1, 0.1) // SecLevel 0: excluded

	best := BestPerSecurity([]Point{p2, p3, p1, unleveled})
	if len(best) != 2 {
		t.Fatalf("got %d levels, want 2", len(best))
	}
	if best[0].Level != 1 || best[1].Level != 3 {
		t.Errorf("levels = %d,%d, want 1,3", best[0].Level, best[1].Level)
	}
	if best[0].MinEnergy.Config.Curve != "P-192" {
		t.Errorf("level 1 min-energy = %s, want P-192", best[0].MinEnergy.Config.Curve)
	}
	if best[0].MinLatency.Config.Curve != "B-163" {
		t.Errorf("level 1 min-latency = %s, want B-163", best[0].MinLatency.Config.Curve)
	}
	if best[0].MinEDP.Config.Curve != "P-192" {
		t.Errorf("level 1 min-EDP = %s, want P-192 (EDP 9 < 10)", best[0].MinEDP.Config.Curve)
	}
	if best[1].MinEnergy.Config.Curve != "P-256" || best[1].MinLatency.Config.Curve != "P-256" {
		t.Errorf("level 3 best should be the only point")
	}
}

// leveled builds a Point at a given security level with a
// distinguishing curve label.
func leveled(label string, energyJ, timeS float64, level, bits int) Point {
	p := fixture(label, energyJ, timeS)
	p.SecLevel, p.SecurityBits = level, bits
	return p
}

func TestPerLevelEmptyInput(t *testing.T) {
	// Both per-level analyses share perLevel: empty input must come back
	// as zero levels, not a panic or a nil-level group.
	if got := perLevel(nil); len(got) != 0 {
		t.Errorf("perLevel(nil) = %v, want empty", got)
	}
	if got := ParetoPerLevel(nil); len(got) != 0 {
		t.Errorf("ParetoPerLevel(nil) = %v, want empty", got)
	}
	if got := BestPerSecurity([]Point{}); len(got) != 0 {
		t.Errorf("BestPerSecurity(empty) = %v, want empty", got)
	}
}

func TestPerLevelAllUnleveled(t *testing.T) {
	// A cloud made entirely of SecLevel == 0 points (unknown curves) has
	// no levels to analyse: every grouped view is empty.
	points := []Point{fixture("a", 1, 1), fixture("b", 2, 2)}
	if got := perLevel(points); len(got) != 0 {
		t.Errorf("perLevel(unleveled) = %v, want empty", got)
	}
	if got := ParetoPerLevel(points); len(got) != 0 {
		t.Errorf("ParetoPerLevel(unleveled) = %v, want empty", got)
	}
	if got := BestPerSecurity(points); len(got) != 0 {
		t.Errorf("BestPerSecurity(unleveled) = %v, want empty", got)
	}
}

func TestPerLevelGrouping(t *testing.T) {
	// Levels come back ascending regardless of input order, each group
	// keeps input order, and SecurityBits rides along from the points.
	points := []Point{
		leveled("e5", 1, 1, 5, 256),
		leveled("a1", 2, 2, 1, 96),
		leveled("b1", 3, 3, 1, 96),
		fixture("skip", 0, 0),
	}
	groups := perLevel(points)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	if groups[0].level != 1 || groups[0].bits != 96 || !equalLabels(labels(pick(points, groups[0].idx)), "a1", "b1") {
		t.Errorf("group 0 = level %d bits %d %v, want level 1 bits 96 [a1 b1]",
			groups[0].level, groups[0].bits, labels(pick(points, groups[0].idx)))
	}
	if groups[1].level != 5 || groups[1].bits != 256 || !equalLabels(labels(pick(points, groups[1].idx)), "e5") {
		t.Errorf("group 1 = level %d bits %d %v, want level 5 bits 256 [e5]",
			groups[1].level, groups[1].bits, labels(pick(points, groups[1].idx)))
	}
}

func TestParetoPerLevelKeepsTies(t *testing.T) {
	// Duplicate-metric points within one level both survive that level's
	// frontier — and a tie in another level is scoped to its own group.
	points := []Point{
		leveled("twin1", 2, 2, 1, 96),
		leveled("twin2", 2, 2, 1, 96),
		leveled("loser", 3, 3, 1, 96),
		leveled("solo", 2, 2, 3, 128),
	}
	fs := ParetoPerLevel(points)
	if len(fs) != 2 {
		t.Fatalf("got %d levels, want 2", len(fs))
	}
	if got := labels(fs[0].Points); !equalLabels(got, "twin1", "twin2") {
		t.Errorf("level 1 frontier = %v, want both twins and no loser", got)
	}
	if got := labels(fs[1].Points); !equalLabels(got, "solo") {
		t.Errorf("level 3 frontier = %v, want [solo]", got)
	}
}

func TestSecurityLevel(t *testing.T) {
	cases := []struct {
		curve       string
		level, bits int
	}{
		{"P-192", 1, 96}, {"B-163", 1, 96},
		{"P-256", 3, 128}, {"B-283", 3, 128},
		{"P-521", 5, 256}, {"B-571", 5, 256},
		{"X-999", 0, 0},
	}
	for _, c := range cases {
		l, b := SecurityLevel(c.curve)
		if l != c.level || b != c.bits {
			t.Errorf("SecurityLevel(%s) = (%d,%d), want (%d,%d)", c.curve, l, b, c.level, c.bits)
		}
	}
}
