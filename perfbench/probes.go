package main

import (
	"crypto/sha256"
	"runtime"
	"time"

	"repro/internal/ec"
	"repro/internal/ecdsa"
	"repro/internal/gf2"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/mp"
)

// nsPerOp times fn in batches of at least 5 ms and returns the median
// per-call time of five batches, in nanoseconds.
func nsPerOp(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if time.Since(start) >= 5*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for r := 0; r < 5; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return median(per)
}

// allocsPerOp is the mean number of heap allocations one call makes.
func allocsPerOp(fn func()) float64 {
	const n = 1000
	fn()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// words returns k deterministic pseudo-random words.
func words(k int, s uint32) []uint32 {
	w := make([]uint32, k)
	for i := range w {
		s = s*1664525 + 1013904223
		w[i] = s
	}
	return w
}

var sinkWord uint32

// probes runs the field-arithmetic, point-multiplication, signature
// and kernel micro probes, one span per layer.
func (c *child) probes(root int) {
	c.t.do("probe.gf2", root, func(int) { c.gf2Probes() })
	c.t.do("probe.mp", root, func(int) { c.mpProbes() })
	c.t.do("probe.ec", root, c.ecProbes)
	c.t.do("probe.kernels", root, func(int) { c.kernelProbes() })
}

// gf2Probes measures B-283 field arithmetic.
func (c *child) gf2Probes() {
	fc := gf2.NISTField("B-283", gf2.CLMul)
	fb := gf2.NISTField("B-283", gf2.Comb)
	a, b := gf2.Elem(words(fc.K, 1)), gf2.Elem(words(fc.K, 2))
	top := uint32(1)<<(fc.M%32) - 1
	a[fc.K-1] &= top
	b[fc.K-1] &= top
	z := gf2.New(fc.K)
	prod := gf2.New(2 * fc.K)
	gf2.MulCl(prod, a, b)
	x, y := a[0], b[0]
	c.set("gf2.clmul_word_ns", nsPerOp(func() {
		hi, lo := gf2.ClMulWord(x, y)
		sinkWord ^= hi ^ lo
	}))
	c.set("gf2.mul_clmul_ns", nsPerOp(func() { fc.Mul(z, a, b) }))
	c.set("gf2.mul_comb_ns", nsPerOp(func() { fb.Mul(z, a, b) }))
	c.set("gf2.sqr_ns", nsPerOp(func() { fc.Sqr(z, a) }))
	c.set("gf2.reduce_ns", nsPerOp(func() { fc.ReduceFull(z, prod) }))
	c.set("gf2.inv_us", nsPerOp(func() { fc.Inv(z, a) })/1e3)
	c.set("gf2.mul_allocs", allocsPerOp(func() { fc.Mul(z, a, b) }))
}

// mpProbes measures P-256 field arithmetic under the three
// multiplication algorithms the architectures use.
func (c *child) mpProbes() {
	fo := mp.NISTField("P-256", mp.OSNIST)
	fp := mp.NISTField("P-256", mp.PSNIST)
	fm := mp.NISTField("P-256", mp.CIOS)
	a, b := mp.Int(words(fo.K, 3)), mp.Int(words(fo.K, 4))
	a[fo.K-1] >>= 1 // below p
	b[fo.K-1] >>= 1
	z := mp.New(fo.K)
	c.set("mp.mul_osnist_ns", nsPerOp(func() { fo.Mul(z, a, b) }))
	c.set("mp.mul_psnist_ns", nsPerOp(func() { fp.Mul(z, a, b) }))
	c.set("mp.mul_cios_ns", nsPerOp(func() { fm.Mul(z, a, b) }))
	c.set("mp.inv_us", nsPerOp(func() { fo.Inv(z, a) })/1e3)
	c.set("mp.mul_allocs", allocsPerOp(func() { fo.Mul(z, a, b) }))
}

// scalarBelow returns a dense scalar below the group order n.
func scalarBelow(n mp.Int) mp.Int {
	x := n.Clone()
	copy(x, words(len(x), 5))
	x[len(x)-1] = n[len(n)-1] >> 1
	return x
}

// ecProbes measures one point multiplication and one Sign+Verify on
// P-256 (ISA-extended arithmetic) and B-283 (carry-less arithmetic).
func (c *child) ecProbes(parent int) {
	timed := func(name string, fn func()) {
		c.set(name, ms(c.medianOf(3, name, parent, fn)))
	}
	pc := ec.NISTPrimeCurve("P-256", mp.PSNIST)
	bc := ec.NISTBinaryCurve("B-283", gf2.CLMul)
	xp, xb := scalarBelow(pc.N), scalarBelow(mp.Int(bc.N))
	timed("ec.scalar_mult_p256_ms", func() { pc.ScalarMult(xp, pc.Generator()) })
	timed("ec.scalar_mult_b283_ms", func() { bc.ScalarMult(xb, bc.Generator()) })

	digest := sha256.Sum256([]byte("perfbench"))
	pk := ecdsa.GenerateKey(pc, []byte("perfbench-p256"))
	bk := ecdsa.GenerateBinaryKey(bc, []byte("perfbench-b283"))
	timed("ecdsa.sign_verify_p256_ms", func() {
		sig, err := ecdsa.Sign(pk, digest[:])
		if err != nil || !ecdsa.Verify(pc, pk.Q, digest[:], sig) {
			c.fail("P-256 sign/verify failed: %v", err)
		}
	})
	timed("ecdsa.sign_verify_b283_ms", func() {
		sig, err := ecdsa.SignBinary(bk, digest[:])
		if err != nil || !ecdsa.VerifyBinary(bc, bk.Q, digest[:], sig) {
			c.fail("B-283 sign/verify failed: %v", err)
		}
	})
}

// Kernel operand addresses, as the simulator's kernel measurement lays
// them out.
const (
	kResAddr = mem.RAMBase + 0x000
	kAAddr   = mem.RAMBase + 0x400
	kBAddr   = mem.RAMBase + 0x800
	kPAddr   = mem.RAMBase + 0xc00
	kSqrTbl  = mem.RAMBase + 0x3c00
)

// kernelProbes runs every kernel the simulator measures at each word
// count the curves use, on the Pete pipeline simulator, and reports the
// host time of the whole set and the simulated instruction rate.
func (c *child) kernelProbes() {
	primeK := []int{6, 7, 8, 12, 17}
	binaryK := []int{6, 8, 9, 13, 18}
	type job struct {
		k      *kernels.Kernel
		ks     []int
		reduce bool
	}
	jobs := []job{
		{kernels.AddMP, primeK, false}, {kernels.MulOS, primeK, false},
		{kernels.MulPSExt, primeK, false}, {kernels.SqrPSExt, primeK, false},
		{kernels.AddGF2, binaryK, false}, {kernels.MulComb, binaryK, false},
		{kernels.SqrGF2TableHot, binaryK, false}, {kernels.MulGF2Ext, binaryK, false},
		{kernels.SqrGF2Cl, binaryK, false},
		{kernels.RedP192, []int{6}, true}, {kernels.RedB163, []int{6}, true},
	}
	tbl := make([]uint32, 128)
	for u := 0; u < 256; u++ {
		var sq uint32
		for bit := 0; bit < 8; bit++ {
			if u&(1<<bit) != 0 {
				sq |= 1 << (2 * bit)
			}
		}
		tbl[u/2] |= sq << (16 * (u % 2))
	}
	var hostUS []float64
	var insts uint64
	for rep := 0; rep < 3; rep++ {
		var total time.Duration
		for _, j := range jobs {
			for _, k := range j.ks {
				r := kernels.NewRunner()
				r.StoreWords(kAAddr, words(k, 7))
				r.StoreWords(kBAddr, words(2*k, 8))
				r.StoreWords(kSqrTbl, tbl)
				args := []uint32{kResAddr, kAAddr, kBAddr, uint32(k)}
				if j.reduce {
					r.StoreWords(kPAddr, []uint32{0xffffffff, 0xffffffff, 0xfffffffe, 0xffffffff, 0xffffffff, 0xffffffff})
					args = []uint32{kResAddr, kBAddr, kPAddr}
				}
				start := time.Now()
				st, err := r.Run(j.k, args...)
				d := time.Since(start)
				if err != nil {
					c.fail("kernel %s k=%d: %v", j.k.Name, k, err)
				}
				total += d
				if rep == 0 {
					insts += st.Insts
				}
			}
		}
		hostUS = append(hostUS, float64(total)/1e3)
	}
	runUS := median(hostUS)
	c.set("kernels.run_us", runUS)
	c.set("cpu.sim_minsts_per_s", float64(insts)/runUS) // insts per µs = millions per s
}
