package sim

import (
	"fmt"
	"strings"

	"repro/internal/energy"
)

// Per-knob domain checks. Each design-space knob has exactly one value
// domain, defined here next to the model that implements it; the dse
// axis registry wires these same checks into SweepSpec.Validate, so an
// out-of-range value is rejected with the same message whether it
// arrives through sim.Run, a sweep axis, or a CLI flag. The returned
// errors carry no package prefix — callers wrap them with their own
// ("sim:", "dse:") so the source of the rejection stays visible.

// CheckArch rejects values that are not a declared Arch constant: the
// five evaluated architectures plus the baseline+icache and
// monte+icache study configurations.
func CheckArch(a Arch) error {
	if a < Baseline || a > MonteCache {
		names := make([]string, 0, MonteCache+1)
		for k := Baseline; k <= MonteCache; k++ {
			names = append(names, k.String())
		}
		return fmt.Errorf("unknown architecture %s (want one of: %s)", a, strings.Join(names, ", "))
	}
	return nil
}

// CheckCacheBytes rejects I-cache capacities outside the modeled range.
func CheckCacheBytes(b int) error {
	if b < MinCacheBytes || b > MaxCacheBytes {
		return fmt.Errorf("cache size %d out of modeled range [%d, %d]",
			b, MinCacheBytes, MaxCacheBytes)
	}
	return nil
}

// CheckCacheLineBytes rejects I-cache line sizes the miss and fill-cost
// scaling is not modeled for; 0 means the default line and is accepted.
func CheckCacheLineBytes(b int) error {
	if b == 0 {
		return nil
	}
	if b < MinCacheLineBytes || b > MaxCacheLineBytes || b&(b-1) != 0 {
		return fmt.Errorf("cache line size %d not a modeled configuration (want a power of two in [%d, %d] bytes)",
			b, MinCacheLineBytes, MaxCacheLineBytes)
	}
	return nil
}

// CheckBillieDigit rejects digit-serial multiplier widths outside the
// modeled range.
func CheckBillieDigit(d int) error {
	if d < MinBillieDigit || d > MaxBillieDigit {
		return fmt.Errorf("Billie digit size %d out of modeled range [%d, %d]",
			d, MinBillieDigit, MaxBillieDigit)
	}
	return nil
}

// CheckMonteWidth rejects FFAU datapath widths that were never
// synthesized (Table 7.3 calibrates the power model only at these).
func CheckMonteWidth(w int) error {
	if !KnownMonteWidth(w) {
		return fmt.Errorf("Monte datapath width %d not a synthesized configuration (want one of %v)",
			w, energy.MonteWidths)
	}
	return nil
}

// CheckWorkload rejects unknown workload names ("" means the default
// Sign+Verify scenario and is accepted).
func CheckWorkload(name string) error {
	if !KnownWorkload(name) {
		return fmt.Errorf("unknown workload %q (want one of: %s)", name, workloadNamesForError())
	}
	return nil
}

// validateOptions runs every per-knob check over an already
// default-filled Options. Run calls it before pricing anything; the
// check order fixes which violation is reported when several knobs are
// out of range at once (workload first, then the cache axes, then the
// accelerator axes).
func validateOptions(opt Options) error {
	if err := CheckWorkload(opt.Workload); err != nil {
		return err
	}
	if err := CheckCacheBytes(opt.CacheBytes); err != nil {
		return err
	}
	if err := CheckCacheLineBytes(opt.CacheLineBytes); err != nil {
		return err
	}
	if err := CheckBillieDigit(opt.BillieDigit); err != nil {
		return err
	}
	return CheckMonteWidth(opt.MonteWidth)
}
