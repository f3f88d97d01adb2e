// Package gf2 implements the GF(2^m) "carry-less" binary-field arithmetic
// of Sections 2.1.4 and 4.2.2–4.2.3: comb multiplication with 4-bit
// windows (the software-only path), word-level carry-less multiplication
// (the MULGF2/MADDGF2 ISA-extension path), table-driven and CLMUL fast
// squaring, NIST fast reduction for the five binary fields, and inversion
// by both the polynomial extended Euclidean algorithm and Itoh–Tsujii.
package gf2

import (
	"fmt"
	"strings"
)

// Elem is a binary polynomial of degree < m stored as little-endian 32-bit
// words (bit i of word j is the coefficient of x^(32j+i)).
type Elem []uint32

// New returns a zero element with k words.
func New(k int) Elem { return make(Elem, k) }

// Clone returns an independent copy.
func (a Elem) Clone() Elem {
	z := make(Elem, len(a))
	copy(z, a)
	return z
}

// IsZero reports whether a == 0.
func (a Elem) IsZero() bool {
	for _, w := range a {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOne reports whether a == 1.
func (a Elem) IsOne() bool {
	if len(a) == 0 || a[0] != 1 {
		return false
	}
	for _, w := range a[1:] {
		if w != 0 {
			return false
		}
	}
	return true
}

// Bit returns coefficient i.
func (a Elem) Bit(i int) uint {
	w := i / 32
	if w >= len(a) {
		return 0
	}
	return uint(a[w]>>(uint(i)%32)) & 1
}

// Degree returns the degree of a, or -1 for the zero polynomial.
func (a Elem) Degree() int {
	for i := len(a) - 1; i >= 0; i-- {
		if a[i] != 0 {
			n := 31
			for a[i]>>uint(n) == 0 {
				n--
			}
			return 32*i + n
		}
	}
	return -1
}

// Equal reports a == b (lengths may differ; missing words are zero).
func Equal(a, b Elem) bool {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		var av, bv uint32
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		if av != bv {
			return false
		}
	}
	return true
}

// Hex renders a as hexadecimal.
func (a Elem) Hex() string {
	var b strings.Builder
	started := false
	for i := len(a) - 1; i >= 0; i-- {
		if started {
			fmt.Fprintf(&b, "%08x", a[i])
		} else if a[i] != 0 {
			fmt.Fprintf(&b, "%x", a[i])
			started = true
		}
	}
	if !started {
		return "0"
	}
	return b.String()
}

// FromHex parses hex into an Elem of k words.
func FromHex(s string, k int) (Elem, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "0x")
	if s == "" {
		return nil, fmt.Errorf("gf2: empty hex string")
	}
	z := New(k)
	bit := 0
	for i := len(s) - 1; i >= 0; i-- {
		c := s[i]
		var v uint32
		switch {
		case c >= '0' && c <= '9':
			v = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint32(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint32(c-'A') + 10
		default:
			return nil, fmt.Errorf("gf2: invalid hex digit %q", c)
		}
		if v != 0 {
			w := bit / 32
			if w >= k {
				return nil, fmt.Errorf("gf2: value does not fit in %d words", k)
			}
			z[w] |= v << uint(bit%32)
		}
		bit += 4
	}
	return z, nil
}

// MustHex is FromHex that panics on error.
func MustHex(s string, k int) Elem {
	z, err := FromHex(s, k)
	if err != nil {
		panic(err)
	}
	return z
}

// Add sets z = a + b (bitwise XOR — binary-field addition needs no
// reduction, Section 2.1.4). z may alias a or b.
func Add(z, a, b Elem) {
	for i := range z {
		z[i] = a[i] ^ b[i]
	}
}

// maxWords is the widest operand, in 32-bit words, whose multiplication
// and reduction scratch lives in fixed-size stack arrays: 18 words holds
// B-571, the widest NIST binary field. A wider operand falls back to
// heap scratch.
const maxWords = 18

// scratch returns buf[:n], or a fresh n-word slice when buf is too short.
func scratch(buf []uint32, n int) []uint32 {
	if n <= len(buf) {
		return buf[:n]
	}
	return make([]uint32, n)
}

// clMulTab is the 16-entry nibble table of one word b: tab[u] = u(x)·b(x)
// for every u of degree < 4 (at most 35 bits).
type clMulTab [16]uint64

func (t *clMulTab) init(b uint32) {
	bb := uint64(b)
	t[0] = 0
	t[1] = bb
	for u := 2; u < 16; u += 2 {
		t[u] = t[u/2] << 1
		t[u+1] = t[u] ^ bb
	}
}

// mul returns a(x)·b(x) for the table's b, folding a 4 bits at a time
// from the top nibble down.
func (t *clMulTab) mul(a uint32) uint64 {
	p := t[a>>28]
	p = p<<4 ^ t[a>>24&0xf]
	p = p<<4 ^ t[a>>20&0xf]
	p = p<<4 ^ t[a>>16&0xf]
	p = p<<4 ^ t[a>>12&0xf]
	p = p<<4 ^ t[a>>8&0xf]
	p = p<<4 ^ t[a>>4&0xf]
	return p<<4 ^ t[a&0xf]
}

// ClMulWord is the 32x32 -> 64 carry-less multiplication the MULGF2
// instruction implements (Table 5.2). It folds a 16-entry nibble table of
// b, 4 bits of a at a time. The window only speeds up the functional
// product: the modelled cycles and energy of MULGF2 come from the Pete
// kernels and sim/calibrate.go, so it moves no modelled number.
func ClMulWord(a, b uint32) (hi, lo uint32) {
	var t clMulTab
	t.init(b)
	p := t.mul(a)
	return uint32(p >> 32), uint32(p)
}

// MulCl sets z = a * b (unreduced, 2k words) using word-level carry-less
// multiplication in a product-scanning arrangement — the ISA-extended
// software path (Algorithm 3 with MADDGF2). Each b[j]'s nibble table is
// built once per multiply; like ClMulWord, this is a functional speedup
// that moves no modelled cycle or energy. z must not alias a or b.
func MulCl(z, a, b Elem) {
	k := len(a)
	var buf [maxWords]clMulTab
	tabs := buf[:]
	if k > maxWords {
		tabs = make([]clMulTab, k)
	}
	for j := 0; j < k; j++ {
		tabs[j].init(b[j])
	}
	var u, v uint32
	for i := 0; i <= 2*k-2; i++ {
		lo := 0
		if i >= k {
			lo = i - k + 1
		}
		hi := i
		if hi > k-1 {
			hi = k - 1
		}
		for j := lo; j <= hi; j++ {
			p := tabs[i-j].mul(a[j])
			v ^= uint32(p)
			u ^= uint32(p >> 32)
		}
		z[i] = v
		v, u = u, 0
	}
	z[2*k-1] = v
}

// MulComb sets z = a * b (unreduced, 2k words) using the left-to-right comb
// method with 4-bit windows (Algorithm 6), the software-only multiplication
// for processors without a carry-less multiplier. Its 16-row table and
// 2k+1-word accumulator live on the stack up to maxWords; the modelled
// cost of the comb comes from the Pete kernel, not from this routine.
func MulComb(z, a, b Elem) {
	const w = 4
	k := len(a)
	n := k + 1
	var tbuf [16 * (maxWords + 1)]uint32
	var cbuf [2*maxWords + 1]uint32
	tab, c := scratch(tbuf[:], 16*n), scratch(cbuf[:], 2*k+1)
	row := func(u int) []uint32 { return tab[u*n : (u+1)*n] }
	// Precompute Bu = u(x)·b(x) for all u of degree < 4. tab starts
	// zeroed, so row 0 is the zero polynomial.
	copy(row(1), b)
	for u := 2; u < 16; u += 2 {
		// tab[u] = tab[u/2] << 1 ; tab[u+1] = tab[u] + b
		src, dst, odd := row(u/2), row(u), row(u+1)
		var carry uint32
		for i := 0; i <= k; i++ {
			dst[i] = src[i]<<1 | carry
			carry = src[i] >> 31
		}
		copy(odd, dst)
		for i := 0; i < k; i++ {
			odd[i] ^= b[i]
		}
	}
	for j := 32/w - 1; j >= 0; j-- {
		for i := 0; i < k; i++ {
			u := int(a[i]>>uint(w*j)) & 0xf
			if u != 0 {
				r := row(u)
				ci := c[i : i+n]
				for l := range r {
					ci[l] ^= r[l]
				}
			}
		}
		if j != 0 {
			// c <<= w
			var carry uint32
			for i := range c {
				nc := c[i] >> (32 - w)
				c[i] = c[i]<<w | carry
				carry = nc
			}
		}
	}
	copy(z, c[:2*k])
}

// sqrTable maps an 8-bit polynomial to its 16-bit square (zeros interleaved)
// — the precomputed table the software-only squaring uses (Section 4.2.3).
var sqrTable = func() [256]uint16 {
	var t [256]uint16
	for i := 0; i < 256; i++ {
		var s uint16
		for b := 0; b < 8; b++ {
			if i&(1<<uint(b)) != 0 {
				s |= 1 << uint(2*b)
			}
		}
		t[i] = s
	}
	return t
}()

// SqrTable sets z = a^2 (unreduced, 2k words) by interleaving zeros with an
// 8-bit lookup table.
func SqrTable(z, a Elem) {
	k := len(a)
	for i := 0; i < k; i++ {
		w := a[i]
		z[2*i] = uint32(sqrTable[w&0xff]) | uint32(sqrTable[(w>>8)&0xff])<<16
		z[2*i+1] = uint32(sqrTable[(w>>16)&0xff]) | uint32(sqrTable[(w>>24)&0xff])<<16
	}
}

// SqrCl sets z = a^2 (unreduced), the ISA-extended squaring path, where
// each word is squared as MULGF2(a[i], a[i]). Squaring in GF(2) is
// linear — the carry-less square of a word is its bits interleaved with
// zeros — so each word is spread by five shift-and-mask steps instead
// of a carry-less multiply; the result is the same bit for bit. The
// modelled squaring cost comes from the Pete kernels and
// sim/calibrate.go, not from this routine.
func SqrCl(z, a Elem) {
	for i, w := range a {
		p := spreadBits(w)
		z[2*i] = uint32(p)
		z[2*i+1] = uint32(p >> 32)
	}
}

// spreadBits returns w with a zero bit inserted above each of its bits:
// bit j of w moves to bit 2j of the result, which is w's carry-less
// square.
func spreadBits(w uint32) uint64 {
	x := uint64(w)
	x = (x | x<<16) & 0x0000ffff0000ffff
	x = (x | x<<8) & 0x00ff00ff00ff00ff
	x = (x | x<<4) & 0x0f0f0f0f0f0f0f0f
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
