package dse

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/energy"
)

// The wire structs below define the machine-readable documents: their
// field order, names and omitempty rules are the contract, and
// json.MarshalIndent of them is the reference rendering. indentWriter
// (the end of this file) writes those exact bytes without reflection,
// straight from the sweep result; the tests hold it to encoding/json.

// PointJSON is the machine-readable rendering of a design point, stable
// for downstream tooling.
type PointJSON struct {
	Arch          string `json:"arch"`
	Curve         string `json:"curve"`
	CacheBytes    int    `json:"cacheBytes,omitempty"`
	Prefetch      bool   `json:"prefetch,omitempty"`
	IdealCache    bool   `json:"idealCache,omitempty"`
	DoubleBuffer  bool   `json:"doubleBuffer,omitempty"`
	MonteWidth    int    `json:"monteWidth,omitempty"`
	BillieDigit   int    `json:"billieDigit,omitempty"`
	GateAccelIdle bool   `json:"gateAccelIdle,omitempty"`
	// CacheLineBytes is omitted for the default 16-byte line (the
	// canonical config holds 0 there), keeping pre-line-axis output
	// byte-identical.
	CacheLineBytes int `json:"cacheLineBytes,omitempty"`
	// Workload is omitted for the default Sign+Verify scenario, keeping
	// pre-workload-axis output byte-identical.
	Workload     string `json:"workload,omitempty"`
	Hash         string `json:"hash"`
	SecLevel     int    `json:"securityLevel,omitempty"`
	SecurityBits int    `json:"securityBits,omitempty"`
	// Sign/verify cycles are omitted for workloads without those phases
	// (e.g. keygen) so consumers fall through to the phases array
	// instead of reading a misleading 0. Default Sign+Verify points
	// always carry both, keeping the legacy wire form unchanged.
	SignCycles   uint64      `json:"signCycles,omitempty"`
	VerifyCycles uint64      `json:"verifyCycles,omitempty"`
	TotalCycles  uint64      `json:"totalCycles"`
	EnergyJ      float64     `json:"energyJ"`
	TimeS        float64     `json:"timeS"`
	EDP          float64     `json:"edp"`
	PowerW       float64     `json:"powerW"`
	Phases       []PhaseJSON `json:"phases,omitempty"`
}

// PhaseJSON is the wire form of one priced workload phase.
type PhaseJSON struct {
	Name    string  `json:"name"`
	Cycles  uint64  `json:"cycles"`
	EnergyJ float64 `json:"energyJ"`
}

// SweepJSON is the machine-readable rendering of a full sweep. The disk
// fields are omitted when zero/false, keeping in-memory sweep output
// byte-identical to the pre-store wire form.
type SweepJSON struct {
	ClockHz       float64 `json:"clockHz"`
	RawPoints     int     `json:"rawPoints"`
	Configs       int     `json:"configs"`
	Workers       int     `json:"workers"`
	CacheHits     uint64  `json:"cacheHits"`
	CacheMisses   uint64  `json:"cacheMisses"`
	DiskLoaded    int     `json:"diskLoaded,omitempty"`
	DiskSaved     int     `json:"diskSaved,omitempty"`
	DiskUnchanged bool    `json:"diskUnchanged,omitempty"`
	// Timing is present only for instrumented sweeps (SweepOptions.Metrics
	// set); uninstrumented output stays byte-identical to the
	// pre-telemetry wire form.
	Timing *SweepTiming `json:"timing,omitempty"`
	Points []PointJSON  `json:"points"`
	Pareto []PointJSON  `json:"pareto"`
	// ParetoPerLevel holds the frontier within each security level —
	// the comparison at fixed key strength.
	ParetoPerLevel []LevelFrontierJSON `json:"paretoPerLevel"`
}

// LevelFrontierJSON is the wire form of a per-security-level frontier.
type LevelFrontierJSON struct {
	Level        int         `json:"level"`
	SecurityBits int         `json:"securityBits"`
	Points       []PointJSON `json:"points"`
}

// ToJSON converts a point to its wire form. Phases are included only for
// non-default workloads: the default Sign+Verify phase split is already
// carried by signCycles/verifyCycles, and omitting it keeps the wire
// form of pre-workload-axis sweeps unchanged. Every axis field — the
// arch and curve dimensions included — is rendered from the canonical
// config by the axis registry, so a caller-built non-canonical point
// (e.g. CacheBytes left 0 on a cached arch) emits the same option
// values its own hash was computed under, and a new axis needs no
// rendering site beyond its registry entry.
func (p Point) ToJSON() PointJSON {
	var out PointJSON
	p.wireTo(&out)
	return out
}

// wireTo is ToJSON into *out, reusing out's phase slice.
func (p *Point) wireTo(out *PointJSON) {
	phases := out.Phases[:0]
	cc := p.Config.Canonical()
	*out = PointJSON{
		Hash:         cc.Hash(),
		SecLevel:     p.SecLevel,
		SecurityBits: p.SecurityBits,
		SignCycles:   p.Result.SignCycles(),
		VerifyCycles: p.Result.VerifyCycles(),
		TotalCycles:  p.Result.TotalCycles(),
		EnergyJ:      p.EnergyJ,
		TimeS:        p.TimeS,
		EDP:          p.EDP,
		PowerW:       p.Result.Power.Total(),
	}
	for _, ax := range axes {
		ax.toJSON(&cc, out)
	}
	if out.Workload != "" {
		for _, ph := range p.Result.Phases {
			phases = append(phases, PhaseJSON{Name: ph.Name, Cycles: ph.Cycles, EnergyJ: ph.Energy.Total()})
		}
	}
	out.Phases = phases
}

// MarshalJSON renders the sweep result, including its Pareto frontier, as
// indented JSON: the SweepJSON document.
func (r *SweepResult) MarshalJSON() ([]byte, error) {
	f := frontiersOf(r.Points)
	w := newIndentWriter(len(r.Points) + f.size())
	w.sweep(r, &f)
	return w.bytes()
}

// AdaptiveJSON is the machine-readable rendering of an adaptive
// exploration: the economics up front, then the evaluated cloud in the
// same wire form as an exhaustive sweep (whose paretoPerLevel section
// is the exploration's frontier answer).
type AdaptiveJSON struct {
	Rounds        int       `json:"rounds"`
	Evaluated     int       `json:"evaluated"`
	GridConfigs   int       `json:"gridConfigs"`
	Pruned        int       `json:"pruned"`
	FrontierMoves int       `json:"frontierMoves"`
	BudgetHit     bool      `json:"budgetHit,omitempty"`
	Sweep         SweepJSON `json:"sweep"`
}

// MarshalJSON renders the adaptive exploration as indented JSON: the
// AdaptiveJSON document.
func (ar *AdaptiveResult) MarshalJSON() ([]byte, error) {
	f := frontiersOf(ar.Result.Points)
	w := newIndentWriter(len(ar.Result.Points) + f.size())
	w.open('{')
	w.int("rounds", ar.Rounds)
	w.int("evaluated", ar.Evaluated)
	w.int("gridConfigs", ar.GridConfigs)
	w.int("pruned", ar.Pruned)
	w.int("frontierMoves", ar.FrontierMoves)
	if ar.BudgetHit {
		w.bool("budgetHit", true)
	}
	w.key("sweep")
	w.sweep(ar.Result, &f)
	w.close('}')
	return w.bytes()
}

// FrontiersJSON is the machine-readable frontier-only rendering: the
// global energy-vs-latency frontier plus the per-security-level
// frontiers, mirroring what the text -pareto mode shows.
type FrontiersJSON struct {
	Pareto         []PointJSON         `json:"pareto"`
	ParetoPerLevel []LevelFrontierJSON `json:"paretoPerLevel"`
}

// FrontierJSONBytes computes both frontier views of a point set and
// renders them as indented JSON: the FrontiersJSON document.
func FrontierJSONBytes(points []Point) ([]byte, error) {
	f := frontiersOf(points)
	w := newIndentWriter(f.size())
	w.open('{')
	w.frontiers(points, &f)
	w.close('}')
	return w.bytes()
}

// frontiers holds both frontier views of a point set as indices into
// it: the global frontier, and each security level's frontier.
type frontiers struct {
	global []int
	levels []levelGroup
}

func frontiersOf(points []Point) frontiers {
	f := frontiers{global: paretoFront(points, nil), levels: perLevel(points)}
	for i := range f.levels {
		f.levels[i].idx = paretoFront(points, f.levels[i].idx)
	}
	return f
}

// size is the number of points the frontier views render.
func (f *frontiers) size() int {
	n := len(f.global)
	for _, l := range f.levels {
		n += len(l.idx)
	}
	return n
}

// indentWriter appends JSON to one buffer in the exact bytes
// json.MarshalIndent(v, "", "  ") gives for the wire structs above:
// one member per line at two spaces per nesting level, "key": value,
// empty arrays as [], floats, strings and omitempty as encoding/json
// renders them. It writes each document's fields in the declaration
// order of its wire struct, straight from the sweep result, so no
// document is built as wire structs first.
type indentWriter struct {
	b     []byte
	depth int  // open containers
	empty bool // the innermost open container has no member yet
	err   error
	pj    PointJSON // scratch wire form of the point being written
}

// pointBytes is about the indented size of one point: a little over
// the average of the four workloads' points, so a sweep document is
// written into one allocation.
const pointBytes = 720

// newIndentWriter returns a writer sized for a document of n points.
func newIndentWriter(n int) *indentWriter {
	return &indentWriter{b: make([]byte, 0, 1024+n*pointBytes)}
}

// bytes returns the document, or the first error met while writing it.
func (w *indentWriter) bytes() ([]byte, error) {
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

func (w *indentWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
	w.empty = true
}

func (w *indentWriter) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.b = append(w.b, c)
	w.empty = false
}

// next starts a member of the innermost container on its own line.
func (w *indentWriter) next() {
	if !w.empty {
		w.b = append(w.b, ',')
	}
	w.newline()
	w.empty = false
}

// indentSpaces covers eight nesting levels in one append.
const indentSpaces = "                "

func (w *indentWriter) newline() {
	w.b = append(w.b, '\n')
	for n := 2 * w.depth; n > 0; n -= len(indentSpaces) {
		w.b = append(w.b, indentSpaces[:min(n, len(indentSpaces))]...)
	}
}

// key starts an object member; names are plain ASCII and need no
// escaping.
func (w *indentWriter) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, `": `...)
}

func (w *indentWriter) str(k, v string) {
	w.key(k)
	w.b = appendJSONString(w.b, v)
}

func (w *indentWriter) int(k string, v int) {
	w.key(k)
	w.b = strconv.AppendInt(w.b, int64(v), 10)
}

func (w *indentWriter) uint(k string, v uint64) {
	w.key(k)
	w.b = strconv.AppendUint(w.b, v, 10)
}

func (w *indentWriter) bool(k string, v bool) {
	w.key(k)
	w.b = strconv.AppendBool(w.b, v)
}

func (w *indentWriter) float(k string, v float64) {
	w.key(k)
	var err error
	if w.b, err = appendJSONFloat(w.b, v); err != nil && w.err == nil {
		w.err = err
	}
}

// sweep writes the SweepJSON form of r, whose frontiers are f.
func (w *indentWriter) sweep(r *SweepResult, f *frontiers) {
	w.open('{')
	w.float("clockHz", energy.SystemClockHz)
	w.int("rawPoints", r.RawPoints)
	w.int("configs", r.Configs)
	w.int("workers", r.Workers)
	w.uint("cacheHits", r.CacheHits)
	w.uint("cacheMisses", r.CacheMisses)
	if r.DiskLoaded != 0 {
		w.int("diskLoaded", r.DiskLoaded)
	}
	if r.DiskSaved != 0 {
		w.int("diskSaved", r.DiskSaved)
	}
	if r.DiskUnchanged {
		w.bool("diskUnchanged", true)
	}
	if r.Timing != nil {
		// Present only on instrumented runs, so it keeps encoding/json:
		// the prefix indents its inner lines to this depth.
		w.key("timing")
		t, err := json.MarshalIndent(r.Timing, strings.Repeat("  ", w.depth), "  ")
		if err != nil && w.err == nil {
			w.err = err
		}
		w.b = append(w.b, t...)
	}
	w.points("points", r.Points, nil)
	w.frontiers(r.Points, f)
	w.close('}')
}

// frontiers writes the pareto and paretoPerLevel members.
func (w *indentWriter) frontiers(points []Point, f *frontiers) {
	w.points("pareto", points, f.global)
	w.key("paretoPerLevel")
	if len(f.levels) == 0 {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for _, l := range f.levels {
		w.next()
		w.open('{')
		w.int("level", l.level)
		w.int("securityBits", l.bits)
		w.points("points", points, l.idx)
		w.close('}')
	}
	w.close(']')
}

// points writes the array of the indexed points (every point when idx
// is nil), each rendered through the writer's scratch wire form.
func (w *indentWriter) points(k string, points []Point, idx []int) {
	w.key(k)
	w.open('[')
	n := len(idx)
	if idx == nil {
		n = len(points)
	}
	for j := 0; j < n; j++ {
		i := j
		if idx != nil {
			i = idx[j]
		}
		points[i].wireTo(&w.pj)
		w.next()
		w.point(&w.pj)
	}
	w.close(']')
}

func (w *indentWriter) point(p *PointJSON) {
	w.open('{')
	w.str("arch", p.Arch)
	w.str("curve", p.Curve)
	if p.CacheBytes != 0 {
		w.int("cacheBytes", p.CacheBytes)
	}
	if p.Prefetch {
		w.bool("prefetch", true)
	}
	if p.IdealCache {
		w.bool("idealCache", true)
	}
	if p.DoubleBuffer {
		w.bool("doubleBuffer", true)
	}
	if p.MonteWidth != 0 {
		w.int("monteWidth", p.MonteWidth)
	}
	if p.BillieDigit != 0 {
		w.int("billieDigit", p.BillieDigit)
	}
	if p.GateAccelIdle {
		w.bool("gateAccelIdle", true)
	}
	if p.CacheLineBytes != 0 {
		w.int("cacheLineBytes", p.CacheLineBytes)
	}
	if p.Workload != "" {
		w.str("workload", p.Workload)
	}
	w.str("hash", p.Hash)
	if p.SecLevel != 0 {
		w.int("securityLevel", p.SecLevel)
	}
	if p.SecurityBits != 0 {
		w.int("securityBits", p.SecurityBits)
	}
	if p.SignCycles != 0 {
		w.uint("signCycles", p.SignCycles)
	}
	if p.VerifyCycles != 0 {
		w.uint("verifyCycles", p.VerifyCycles)
	}
	w.uint("totalCycles", p.TotalCycles)
	w.float("energyJ", p.EnergyJ)
	w.float("timeS", p.TimeS)
	w.float("edp", p.EDP)
	w.float("powerW", p.PowerW)
	if len(p.Phases) != 0 {
		w.key("phases")
		w.open('[')
		for i := range p.Phases {
			ph := &p.Phases[i]
			w.next()
			w.open('{')
			w.str("name", ph.Name)
			w.uint("cycles", ph.Cycles)
			w.float("energyJ", ph.EnergyJ)
			w.close('}')
		}
		w.close(']')
	}
	w.close('}')
}

// appendJSONFloat appends f as encoding/json renders a float64: the
// shortest round-trip decimal, in exponent form below 1e-6 and from
// 1e21 on with a two-digit negative exponent shortened (e-07 → e-7).
// NaN and ±Inf have no JSON form and are an error.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// jsonVerbatim marks the bytes appendJSONString copies unescaped: the
// printable ASCII other than the quote, the backslash, <, > and &.
var jsonVerbatim = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

// appendJSONString appends s as a JSON string the way encoding/json
// renders it with HTML escaping on: the quote, the backslash and the
// control characters escaped (\b \f \n \r \t by name, the rest as
// \u00XX), <, > and & as \u003c \u003e \u0026, U+2028 and U+2029 as
// \u2028 and \u2029, and each byte of invalid UTF-8 replaced by \ufffd.
func appendJSONString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonVerbatim[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
