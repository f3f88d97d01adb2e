package sim

import (
	"fmt"
	"sync"

	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// PerOp is the simulated cost of one field operation.
type PerOp struct {
	Cycles    uint64
	Insts     uint64
	RAMReads  uint64
	RAMWrites uint64
	// Accel is the portion of Cycles during which an accelerator
	// datapath is busy (zero for pure-software operations).
	Accel uint64
}

func (p PerOp) scale(f float64) PerOp {
	return PerOp{
		Cycles:    uint64(float64(p.Cycles) * f),
		Insts:     uint64(float64(p.Insts) * f),
		RAMReads:  uint64(float64(p.RAMReads) * f),
		RAMWrites: uint64(float64(p.RAMWrites) * f),
		Accel:     uint64(float64(p.Accel) * f),
	}
}

func (p PerOp) plus(q PerOp) PerOp {
	return PerOp{p.Cycles + q.Cycles, p.Insts + q.Insts,
		p.RAMReads + q.RAMReads, p.RAMWrites + q.RAMWrites,
		p.Accel + q.Accel}
}

// FieldCosts prices every field-level operation for one configuration.
type FieldCosts struct {
	Mul PerOp
	Sqr PerOp
	Add PerOp
	Sub PerOp
	Inv PerOp
}

// measureKey identifies one kernel measurement: the kernel and its
// operand width in words.
type measureKey struct {
	kernel string
	words  int
}

// kernel measurement cache: (kernel, k) → PerOp.
var (
	measureMu    sync.Mutex
	measureCache = map[measureKey]PerOp{}
)

const (
	mresAddr = mem.RAMBase + 0x000
	maAddr   = mem.RAMBase + 0x400
	mbAddr   = mem.RAMBase + 0x800
	mpAddr   = mem.RAMBase + 0xc00
)

// measureKernel runs a kernel once on the pipeline simulator with
// representative worst-case-ish operands and returns its cost.
func measureKernel(k *kernels.Kernel, kWords int, extraArg bool) PerOp {
	key := measureKey{k.Name, kWords}
	measureMu.Lock()
	defer measureMu.Unlock()
	if c, ok := measureCache[key]; ok {
		return c
	}
	r := kernels.NewRunner()
	a := make([]uint32, kWords)
	b := make([]uint32, kWords)
	// Dense operands: every bit pattern non-trivial so data-dependent
	// paths (window hits in the comb) run at realistic density.
	s := uint32(0x9e3779b9)
	for i := range a {
		a[i] = s ^ uint32(i*0x85ebca6b)
		b[i] = s + uint32(i*0xc2b2ae35) | 1
		s = s*1664525 + 1013904223
	}
	r.StoreWords(maAddr, a)
	r.StoreWords(mbAddr, b)
	// Boot-time square table for the hot table-squaring kernel.
	tbl := make([]uint32, 128)
	for u := 0; u < 256; u++ {
		var sq uint32
		for bit := 0; bit < 8; bit++ {
			if u&(1<<bit) != 0 {
				sq |= 1 << (2 * bit)
			}
		}
		if u%2 == 0 {
			tbl[u/2] = sq
		} else {
			tbl[u/2] |= sq << 16
		}
	}
	r.StoreWords(mem.RAMBase+0x3c00, tbl)
	var st cpu.Stats
	var err error
	if extraArg {
		// Reduction kernel signature: (res, c, p) with c of 2k words.
		c12 := make([]uint32, 2*kWords)
		for i := range c12 {
			c12[i] = s ^ uint32(i*0x27d4eb2f)
			s = s*22695477 + 1
		}
		r.StoreWords(mbAddr, c12)
		// P-192 modulus (the only hand-written reduction kernel).
		pr := []uint32{0xffffffff, 0xffffffff, 0xfffffffe, 0xffffffff, 0xffffffff, 0xffffffff}
		r.StoreWords(mpAddr, pr)
		st, err = r.Run(k, mresAddr, mbAddr, mpAddr)
	} else {
		st, err = r.Run(k, mresAddr, maAddr, mbAddr, uint32(kWords))
	}
	if err != nil {
		panic(fmt.Sprintf("sim: kernel %s failed: %v", k.Name, err))
	}
	c := PerOp{Cycles: st.Cycles, Insts: st.Insts, RAMReads: st.Loads, RAMWrites: st.Stores}
	measureCache[key] = c
	return c
}
