package dse

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/sim"
)

// The v2 store line codec. Every entry line of the store is
//
//	{"hash":…,"key":…,"result":{…}}
//
// in exactly the bytes encoding/json gives for diskEntry: compact, with
// sim.Result's fields in declaration order under their Go names,
// Options.CacheLineBytes omitted when 0, floats and strings as
// appendJSONFloat and appendJSONString render them. appendStoreLine
// writes that form and parseStoreLine reads it back without reflection.
// The parser accepts that canonical form and nothing else — no
// reordered or unknown keys, no whitespace, no other spelling of a
// number or string — so a line it admits decodes to exactly what
// json.Unmarshal would give, and any other line (a hand edit included)
// is a corrupt line.

// appendStoreLine appends the canonical store line of one entry to dst,
// without the newline. A NaN or infinite float is an error, as in
// encoding/json.
func appendStoreLine(dst []byte, hash, key string, r *sim.Result) ([]byte, error) {
	w := lineWriter{b: dst}
	w.str(`{"hash":`, hash)
	w.str(`,"key":`, key)
	w.int(`,"result":{"Arch":`, int(r.Arch))
	w.str(`,"Curve":`, r.Curve)
	o := &r.Opt
	w.int(`,"Opt":{"CacheBytes":`, o.CacheBytes)
	w.bool(`,"Prefetch":`, o.Prefetch)
	w.bool(`,"IdealCache":`, o.IdealCache)
	w.bool(`,"DoubleBuffer":`, o.DoubleBuffer)
	w.int(`,"BillieDigit":`, o.BillieDigit)
	w.int(`,"MonteWidth":`, o.MonteWidth)
	w.bool(`,"GateAccelIdle":`, o.GateAccelIdle)
	if o.CacheLineBytes != 0 {
		w.int(`,"CacheLineBytes":`, o.CacheLineBytes)
	}
	w.str(`,"Workload":`, o.Workload)
	w.str(`},"Workload":`, r.Workload)
	if r.Phases == nil {
		w.b = append(w.b, `,"Phases":null`...)
	} else {
		w.b = append(w.b, `,"Phases":[`...)
		for i := range r.Phases {
			ph := &r.Phases[i]
			open := `,{"Name":`
			if i == 0 {
				open = open[1:]
			}
			w.str(open, ph.Name)
			w.uint(`,"Cycles":`, ph.Cycles)
			w.float(`,"Energy":{"Pete":`, ph.Energy.Pete)
			w.float(`,"ROM":`, ph.Energy.ROM)
			w.float(`,"RAM":`, ph.Energy.RAM)
			w.float(`,"Uncore":`, ph.Energy.Uncore)
			w.float(`,"Accel":`, ph.Energy.Accel)
			w.b = append(w.b, `}}`...)
		}
		w.b = append(w.b, ']')
	}
	w.float(`,"Power":{"StaticW":`, r.Power.StaticW)
	w.float(`,"DynamicW":`, r.Power.DynamicW)
	w.uint(`},"InstFetches":`, r.InstFetches)
	w.uint(`,"RAMReads":`, r.RAMReads)
	w.uint(`,"RAMWrites":`, r.RAMWrites)
	w.uint(`,"AccelBusy":`, r.AccelBusy)
	w.uint(`,"CacheMissStall":`, r.CacheMissStall)
	w.b = append(w.b, `}}`...)
	return w.b, w.err
}

// parseStoreLine decodes one canonical store line (without its
// newline) into e, which must be zero, and returns the line's audit key
// as a sub-slice of line. It reports false for any line that is not in
// the canonical form appendStoreLine writes; e is then unspecified.
// strs interns the curve, workload and phase names, which repeat on
// every line, so a decoded entry allocates only its hash and its phase
// slice.
func parseStoreLine(line []byte, e *loadEntry, strs map[string]string) (key []byte, ok bool) {
	p := lineParser{b: line, strs: strs, ok: true}
	e.Hash = string(p.str(`{"hash":`))
	key = p.str(`,"key":`)
	r := &e.Result
	r.Arch = sim.Arch(p.int(`,"result":{"Arch":`))
	r.Curve = p.name(`,"Curve":`)
	o := &r.Opt
	o.CacheBytes = p.int(`,"Opt":{"CacheBytes":`)
	o.Prefetch = p.bool(`,"Prefetch":`)
	o.IdealCache = p.bool(`,"IdealCache":`)
	o.DoubleBuffer = p.bool(`,"DoubleBuffer":`)
	o.BillieDigit = p.int(`,"BillieDigit":`)
	o.MonteWidth = p.int(`,"MonteWidth":`)
	o.GateAccelIdle = p.bool(`,"GateAccelIdle":`)
	if p.skip(`,"CacheLineBytes":`) {
		// omitempty: the canonical form never spells out a 0.
		if o.CacheLineBytes = p.int(""); o.CacheLineBytes == 0 {
			p.ok = false
		}
	}
	o.Workload = p.name(`,"Workload":`)
	r.Workload = p.name(`},"Workload":`)
	if !p.skip(`,"Phases":null`) {
		p.lit(`,"Phases":[`)
		var buf [8]sim.PhaseResult
		phases := buf[:0]
		for open := `{"Name":`; p.ok && !p.skip(`]`); open = `,{"Name":` {
			var ph sim.PhaseResult
			ph.Name = p.name(open)
			ph.Cycles = p.uint(`,"Cycles":`)
			ph.Energy.Pete = p.float(`,"Energy":{"Pete":`)
			ph.Energy.ROM = p.float(`,"ROM":`)
			ph.Energy.RAM = p.float(`,"RAM":`)
			ph.Energy.Uncore = p.float(`,"Uncore":`)
			ph.Energy.Accel = p.float(`,"Accel":`)
			p.lit(`}}`)
			phases = append(phases, ph)
		}
		r.Phases = append(make([]sim.PhaseResult, 0, len(phases)), phases...)
	}
	r.Power.StaticW = p.float(`,"Power":{"StaticW":`)
	r.Power.DynamicW = p.float(`,"DynamicW":`)
	r.InstFetches = p.uint(`},"InstFetches":`)
	r.RAMReads = p.uint(`,"RAMReads":`)
	r.RAMWrites = p.uint(`,"RAMWrites":`)
	r.AccelBusy = p.uint(`,"AccelBusy":`)
	r.CacheMissStall = p.uint(`,"CacheMissStall":`)
	p.lit(`}}`)
	return key, p.ok && len(p.b) == 0
}

// lineWriter appends a compact JSON line: each method writes the
// literal text before a value, then the value, keeping the first error.
type lineWriter struct {
	b   []byte
	err error
}

func (w *lineWriter) str(pre, v string) { w.b = appendJSONString(append(w.b, pre...), v) }
func (w *lineWriter) int(pre string, v int) {
	w.b = strconv.AppendInt(append(w.b, pre...), int64(v), 10)
}
func (w *lineWriter) uint(pre string, v uint64) {
	w.b = strconv.AppendUint(append(w.b, pre...), v, 10)
}
func (w *lineWriter) bool(pre string, v bool) { w.b = strconv.AppendBool(append(w.b, pre...), v) }
func (w *lineWriter) float(pre string, v float64) {
	var err error
	if w.b, err = appendJSONFloat(append(w.b, pre...), v); err != nil && w.err == nil {
		w.err = err
	}
}

// lineParser consumes a canonical line from the front. The first
// mismatch clears ok; every later call is then a no-op returning a zero
// value, so a decode checks ok once at the end.
type lineParser struct {
	b    []byte
	strs map[string]string
	ok   bool
}

// skip consumes s if the input starts with it.
func (p *lineParser) skip(s string) bool {
	if p.ok && len(p.b) >= len(s) && string(p.b[:len(s)]) == s {
		p.b = p.b[len(s):]
		return true
	}
	return false
}

// lit consumes s, which the input must start with.
func (p *lineParser) lit(s string) {
	if !p.skip(s) {
		p.ok = false
	}
}

func (p *lineParser) bool(pre string) bool {
	p.lit(pre)
	if p.skip("true") {
		return true
	}
	if !p.skip("false") {
		p.ok = false
	}
	return false
}

// uint consumes pre and a canonical unsigned integer: digits without a
// leading zero, within uint64.
func (p *lineParser) uint(pre string) uint64 {
	if p.lit(pre); !p.ok {
		return 0
	}
	var v uint64
	n := 0
	for ; n < len(p.b) && '0' <= p.b[n] && p.b[n] <= '9'; n++ {
		d := uint64(p.b[n] - '0')
		if v > (math.MaxUint64-d)/10 {
			p.ok = false
			return 0
		}
		v = v*10 + d
	}
	if n == 0 || (p.b[0] == '0' && n > 1) {
		p.ok = false
		return 0
	}
	p.b = p.b[n:]
	return v
}

// int consumes pre and a canonical int: an optional minus sign (never
// on 0) and a canonical unsigned magnitude, within int.
func (p *lineParser) int(pre string) int {
	p.lit(pre)
	neg := p.skip("-")
	u := p.uint("")
	switch {
	case !neg && u <= math.MaxInt:
		return int(u)
	case neg && u != 0 && u-1 <= math.MaxInt:
		return -int(u-1) - 1
	}
	p.ok = false
	return 0
}

// float consumes pre and a float64 spelled exactly as appendJSONFloat
// spells it; anything else (another spelling of the same value included) is
// rejected. A value whose decimal mantissa fits 2^53 and whose power of
// ten is at most 22 is computed exactly by one multiply or divide (both
// operands exact, so the result is correctly rounded, as ParseFloat's
// own fast path does); any other value goes through ParseFloat.
func (p *lineParser) float(pre string) float64 {
	if p.lit(pre); !p.ok {
		return 0
	}
	b := p.b
	n := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		n++
	}
	// The mantissa's first 19 significant digits and the power of ten
	// that scales them; long marks a mantissa with more.
	var m uint64
	digits, scale, long := 0, 0, false
	for frac := false; n < len(b); n++ {
		c := b[n]
		if c == '.' && !frac {
			frac = true
			continue
		}
		if c < '0' || c > '9' {
			break
		}
		if digits == 19 {
			long = true
			continue
		}
		if m = m*10 + uint64(c-'0'); m != 0 {
			digits++
		}
		if frac {
			scale--
		}
	}
	exp := 0
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		sign := 1
		if n < len(b) && (b[n] == '-' || b[n] == '+') {
			if b[n] == '-' {
				sign = -1
			}
			n++
		}
		for ; n < len(b) && '0' <= b[n] && b[n] <= '9'; n++ {
			exp = min(exp*10+int(b[n]-'0'), 1000)
		}
		exp *= sign
	}
	raw := b[:n]
	var f float64
	var err error
	if e := scale + exp; !long && m <= 1<<53 && -22 <= e && e <= 22 {
		if f = float64(m); e < 0 {
			f /= exactPow10[-e]
		} else {
			f *= exactPow10[e]
		}
		if neg {
			f = -f
		}
	} else {
		f, err = strconv.ParseFloat(string(raw), 64)
	}
	var buf [32]byte
	if canon, ferr := appendJSONFloat(buf[:0], f); err != nil || ferr != nil || !bytes.Equal(canon, raw) {
		p.ok = false
		return 0
	}
	p.b = p.b[n:]
	return f
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// str consumes pre and a canonical string, and returns the string's
// decoded bytes (a sub-slice of the line when nothing in it is escaped).
func (p *lineParser) str(pre string) []byte {
	if p.lit(pre); !p.skip(`"`) {
		p.ok = false
		return nil
	}
	for i, c := range p.b {
		switch {
		case c == '"':
			s := p.b[:i]
			p.b = p.b[i+1:]
			return s
		case !jsonVerbatim[c]:
			return p.escapedStr()
		}
	}
	p.ok = false
	return nil
}

// escapedStr is str's path for a string holding escapes or non-ASCII
// bytes: it decodes the escapes appendJSONString writes, then admits
// the string only if re-encoding the result gives back its exact
// bytes.
func (p *lineParser) escapedStr() []byte {
	var out []byte
	i := 0
	for ; i < len(p.b) && p.b[i] != '"'; i++ {
		c := p.b[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		if i++; i >= len(p.b) {
			break
		}
		switch p.b[i] {
		case '"', '\\':
			out = append(out, p.b[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(p.b) {
				p.ok = false
				return nil
			}
			r, err := strconv.ParseUint(string(p.b[i+1:i+5]), 16, 16)
			if err != nil || utf8.RuneLen(rune(r)) < 0 {
				p.ok = false // a surrogate half, which the writer never emits
				return nil
			}
			out = utf8.AppendRune(out, rune(r))
			i += 4
		default:
			p.ok = false
			return nil
		}
	}
	if i >= len(p.b) {
		p.ok = false
		return nil
	}
	var buf [64]byte
	if canon := appendJSONString(buf[:0], string(out)); !bytes.Equal(canon[1:len(canon)-1], p.b[:i]) {
		p.ok = false
		return nil
	}
	p.b = p.b[i+1:]
	return out
}

// name consumes pre and a canonical string, and returns the string
// interned.
func (p *lineParser) name(pre string) string {
	b := p.str(pre)
	if s, ok := p.strs[string(b)]; ok {
		return s
	}
	s := string(b)
	if p.ok {
		p.strs[s] = s
	}
	return s
}
