package gf2

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// bigClMul multiplies two binary polynomials represented as big.Ints.
func bigClMul(a, b *big.Int) *big.Int {
	z := new(big.Int)
	t := new(big.Int)
	for i := 0; i <= a.BitLen(); i++ {
		if a.Bit(i) == 1 {
			t.Lsh(b, uint(i))
			z.Xor(z, t)
		}
	}
	return z
}

// bigMod reduces polynomial a modulo polynomial f.
func bigMod(a, f *big.Int) *big.Int {
	z := new(big.Int).Set(a)
	df := f.BitLen() - 1
	t := new(big.Int)
	for z.BitLen()-1 >= df && z.Sign() != 0 {
		sh := uint(z.BitLen() - 1 - df)
		t.Lsh(f, sh)
		z.Xor(z, t)
	}
	return z
}

func toBig(a Elem) *big.Int {
	z := new(big.Int)
	for i := len(a) - 1; i >= 0; i-- {
		z.Lsh(z, 32)
		z.Or(z, big.NewInt(int64(a[i])))
	}
	return z
}

func (f *Field) bigModulus() *big.Int {
	z := big.NewInt(1)
	z.SetBit(z, f.M, 1)
	for _, e := range f.Terms {
		z.SetBit(z, e, 1)
	}
	return z
}

func randElem(r *rand.Rand, f *Field) Elem {
	z := New(f.K)
	for i := range z {
		z[i] = r.Uint32()
	}
	// Clear bits >= m.
	top := uint(f.M) % 32
	if top != 0 {
		z[f.K-1] &= (1 << top) - 1
	}
	return z
}

// clMulWordSerial is the bit-serial 32-step loop the MULGF2 instruction
// is defined by (Table 5.2): the oracle for the windowed ClMulWord.
func clMulWordSerial(a, b uint32) (hi, lo uint32) {
	var p uint64
	bb := uint64(b)
	for i := 0; i < 32; i++ {
		if a&(1<<uint(i)) != 0 {
			p ^= bb << uint(i)
		}
	}
	return uint32(p >> 32), uint32(p)
}

// TestClMulWord checks the windowed ClMulWord against the serial loop on
// every pair of low bytes and on edge words, and against both the serial
// loop and math/big on random words.
func TestClMulWord(t *testing.T) {
	matchesSerial := func(a, b uint32) bool {
		hi, lo := ClMulWord(a, b)
		wh, wl := clMulWordSerial(a, b)
		return hi == wh && lo == wl
	}
	for a := uint32(0); a < 256; a++ {
		for b := uint32(0); b < 256; b++ {
			if !matchesSerial(a, b) {
				t.Fatalf("ClMulWord(%#x, %#x) differs from the serial loop", a, b)
			}
		}
	}
	edges := []uint32{0, 1, 0x80000000, 0xffffffff}
	for _, a := range edges {
		for _, b := range edges {
			if !matchesSerial(a, b) {
				t.Fatalf("ClMulWord(%#x, %#x) differs from the serial loop", a, b)
			}
		}
	}
	err := quick.Check(func(a, b uint32) bool {
		hi, lo := ClMulWord(a, b)
		want := bigClMul(big.NewInt(int64(a)), big.NewInt(int64(b)))
		got := new(big.Int).SetUint64(uint64(hi)<<32 | uint64(lo))
		return want.Cmp(got) == 0 && matchesSerial(a, b)
	}, &quick.Config{MaxCount: 5000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMulVariantsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		for i := 0; i < 50; i++ {
			a, b := randElem(r, f), randElem(r, f)
			want := bigClMul(toBig(a), toBig(b))
			zc := New(2 * f.K)
			MulComb(zc, a, b)
			if toBig(zc).Cmp(want) != 0 {
				t.Fatalf("%s MulComb mismatch\n a=%s\n b=%s\n got=%s\n want=%x",
					name, a.Hex(), b.Hex(), zc.Hex(), want)
			}
			zl := New(2 * f.K)
			MulCl(zl, a, b)
			if toBig(zl).Cmp(want) != 0 {
				t.Fatalf("%s MulCl mismatch", name)
			}
		}
	}
}

func TestSqrVariantsAgainstBig(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		for i := 0; i < 50; i++ {
			a := randElem(r, f)
			want := bigClMul(toBig(a), toBig(a))
			z1 := New(2 * f.K)
			SqrTable(z1, a)
			if toBig(z1).Cmp(want) != 0 {
				t.Fatalf("%s SqrTable mismatch", name)
			}
			z2 := New(2 * f.K)
			SqrCl(z2, a)
			if toBig(z2).Cmp(want) != 0 {
				t.Fatalf("%s SqrCl mismatch", name)
			}
		}
	}
}

// TestSqrClMatchesTableAndMulCl checks the bit-interleave squaring
// against the table squaring and the carry-less product a*a on every
// NIST binary field, including the all-ones and single-bit words that
// exercise each shift-and-mask step's boundary.
func TestSqrClMatchesTableAndMulCl(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		for i := 0; i < 100; i++ {
			a := randElem(r, f)
			switch i {
			case 0:
				for j := range a {
					a[j] = 0xffffffff
				}
			case 1:
				for j := range a {
					a[j] = 1 << (j % 32)
				}
			}
			zc, zt, zm := New(2*f.K), New(2*f.K), New(2*f.K)
			SqrCl(zc, a)
			SqrTable(zt, a)
			MulCl(zm, a, a)
			if !Equal(zc, zt) || !Equal(zc, zm) {
				t.Fatalf("%s: SqrCl=%s SqrTable=%s MulCl(a,a)=%s for a=%s",
					name, zc.Hex(), zt.Hex(), zm.Hex(), a.Hex())
			}
		}
	}
}

func TestReduction(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, Comb)
		fb := f.bigModulus()
		for i := 0; i < 100; i++ {
			c := New(2 * f.K)
			for j := range c {
				c[j] = r.Uint32()
			}
			z := New(f.K)
			f.ReduceFull(z, c)
			want := bigMod(toBig(c), fb)
			if toBig(z).Cmp(want) != 0 {
				t.Fatalf("%s reduce mismatch\n c=%s\n got=%s\n want=%x",
					name, c.Hex(), z.Hex(), want)
			}
		}
	}
}

func TestFieldMul(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, name := range BinaryFieldNames {
		fc := NISTField(name, Comb)
		fl := NISTField(name, CLMul)
		fb := fc.bigModulus()
		for i := 0; i < 40; i++ {
			a, b := randElem(r, fc), randElem(r, fc)
			want := bigMod(bigClMul(toBig(a), toBig(b)), fb)
			z1, z2 := New(fc.K), New(fc.K)
			fc.Mul(z1, a, b)
			fl.Mul(z2, a, b)
			if toBig(z1).Cmp(want) != 0 || toBig(z2).Cmp(want) != 0 {
				t.Fatalf("%s field mul mismatch", name)
			}
			fc.Sqr(z1, a)
			ws := bigMod(bigClMul(toBig(a), toBig(a)), fb)
			if toBig(z1).Cmp(ws) != 0 {
				t.Fatalf("%s field sqr mismatch", name)
			}
		}
	}
}

func TestInversion(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, CLMul)
		for i := 0; i < 10; i++ {
			a := randElem(r, f)
			if a.IsZero() {
				continue
			}
			inv := New(f.K)
			f.Inv(inv, a)
			chk := New(f.K)
			f.Mul(chk, a, inv)
			if !chk.IsOne() {
				t.Fatalf("%s EEA inverse wrong: a=%s", name, a.Hex())
			}
			inv2 := New(f.K)
			f.InvIT(inv2, a)
			if !Equal(inv, inv2) {
				t.Fatalf("%s Itoh-Tsujii disagrees with EEA", name)
			}
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	f := NISTField("B-163", Comb)
	defer func() {
		if recover() == nil {
			t.Error("Inv(0) should panic")
		}
	}()
	f.Inv(New(f.K), New(f.K))
}

func TestAddSelfIsZero(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	f := NISTField("B-233", Comb)
	err := quick.Check(func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed ^ r.Int63()))
		a := randElem(rr, f)
		z := New(f.K)
		f.Add(z, a, a)
		return z.IsZero()
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSquareIsSelfMul(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, name := range BinaryFieldNames {
		f := NISTField(name, CLMul)
		for i := 0; i < 20; i++ {
			a := randElem(r, f)
			s, m := New(f.K), New(f.K)
			f.Sqr(s, a)
			f.Mul(m, a, a)
			if !Equal(s, m) {
				t.Fatalf("%s: a^2 != a*a", name)
			}
		}
	}
}

func TestFrobeniusLinear(t *testing.T) {
	// In GF(2^m), squaring is linear: (a+b)^2 = a^2 + b^2.
	r := rand.New(rand.NewSource(8))
	f := NISTField("B-283", CLMul)
	for i := 0; i < 50; i++ {
		a, b := randElem(r, f), randElem(r, f)
		s, sa, sb := New(f.K), New(f.K), New(f.K)
		f.Add(s, a, b)
		f.Sqr(s, s)
		f.Sqr(sa, a)
		f.Sqr(sb, b)
		f.Add(sa, sa, sb)
		if !Equal(s, sa) {
			t.Fatal("squaring not linear")
		}
	}
}

func TestDegreeAndBits(t *testing.T) {
	a := MustHex("10000000000000000000000000000000000000001", 6)
	if a.Degree() != 160 {
		t.Errorf("Degree = %d, want 160", a.Degree())
	}
	if a.Bit(0) != 1 || a.Bit(1) != 0 || a.Bit(160) != 1 {
		t.Error("Bit wrong")
	}
	var z Elem = New(2)
	if z.Degree() != -1 {
		t.Error("zero degree should be -1")
	}
}

func TestHexRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := NISTField("B-571", Comb)
	for i := 0; i < 20; i++ {
		a := randElem(r, f)
		b, err := FromHex(a.Hex(), f.K)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(a, b) {
			t.Fatal("hex round trip failed")
		}
	}
}

func TestCounters(t *testing.T) {
	f := NISTField("B-163", CLMul)
	f.Counters.Reset()
	a := f.One.Clone()
	z := New(f.K)
	f.Mul(z, a, a)
	f.Sqr(z, a)
	f.Add(z, a, a)
	if f.Counters.Mul != 1 || f.Counters.Sqr != 1 || f.Counters.Add != 1 {
		t.Errorf("counters wrong: %+v", f.Counters)
	}
}

// algs lists both multiplication strategies of a binary field.
var algs = []MulAlg{Comb, CLMul}

func TestMulSqrDoNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for _, name := range BinaryFieldNames {
		for _, alg := range algs {
			f := NISTField(name, alg)
			a, b, z := randElem(r, f), randElem(r, f), New(f.K)
			if n := testing.AllocsPerRun(20, func() { f.Mul(z, a, b) }); n != 0 {
				t.Errorf("%s %v: Mul allocates %v times per op", name, alg, n)
			}
			if n := testing.AllocsPerRun(20, func() { f.Sqr(z, a) }); n != 0 {
				t.Errorf("%s %v: Sqr allocates %v times per op", name, alg, n)
			}
		}
	}
}

func TestMulSqrAliasing(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, name := range BinaryFieldNames {
		for _, alg := range algs {
			f := NISTField(name, alg)
			for i := 0; i < 10; i++ {
				a := randElem(r, f)
				want := New(f.K)
				f.Mul(want, a, a)
				x := a.Clone()
				f.Mul(x, x, x)
				if !Equal(x, want) {
					t.Fatalf("%s %v: Mul(x, x, x) differs from Mul(z, x, x)", name, alg)
				}
				f.Sqr(want, a)
				x = a.Clone()
				f.Sqr(x, x)
				if !Equal(x, want) {
					t.Fatalf("%s %v: Sqr(x, x) differs from Sqr(z, x)", name, alg)
				}
			}
		}
	}
}

// TestWideFieldHeapFallback runs a field wider than maxWords, whose
// scratch cannot live in the stack arrays, against math/big.
func TestWideFieldHeapFallback(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, alg := range algs {
		f := NewField("wide", 600, []int{12, 7, 5}, alg)
		if f.K <= maxWords {
			t.Fatalf("K = %d does not exceed maxWords = %d", f.K, maxWords)
		}
		fb := f.bigModulus()
		for i := 0; i < 10; i++ {
			a, b := randElem(r, f), randElem(r, f)
			z := New(f.K)
			f.Mul(z, a, b)
			if want := bigMod(bigClMul(toBig(a), toBig(b)), fb); toBig(z).Cmp(want) != 0 {
				t.Fatalf("%v: wide Mul mismatch", alg)
			}
			f.Sqr(z, a)
			if want := bigMod(bigClMul(toBig(a), toBig(a)), fb); toBig(z).Cmp(want) != 0 {
				t.Fatalf("%v: wide Sqr mismatch", alg)
			}
		}
	}
}
