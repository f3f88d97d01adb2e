package main

import (
	"fmt"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tail is the highest percentile of a sample that still has at least
// tailBeyond samples above it, the tail figure the benchmark reports next
// to each median.
type tail struct {
	Percentile float64 // e.g. 50 for n=20
	Value      float64
	Beyond     int // samples strictly above Value's rank
	N          int
	OK         bool // false when the sample is too small for any such percentile
}

const tailBeyond = 10

// tailPercentile applies the tail rule: with n sorted samples, the
// sample at rank n-tailBeyond-1 (0-based) is the highest one with
// tailBeyond samples beyond it, and it sits at percentile
// 100*(n-tailBeyond)/n. Fewer than tailBeyond+1 samples have no such
// percentile.
func tailPercentile(xs []float64) tail {
	n := len(xs)
	if n <= tailBeyond {
		return tail{N: n}
	}
	s := sorted(xs)
	i := n - tailBeyond - 1
	return tail{
		Percentile: 100 * float64(n-tailBeyond) / float64(n),
		Value:      s[i],
		Beyond:     tailBeyond,
		N:          n,
		OK:         true,
	}
}

func (t tail) String() string {
	if !t.OK {
		return fmt.Sprintf("no percentile has %d samples beyond it (n=%d)", tailBeyond, t.N)
	}
	return fmt.Sprintf("p%.1f=%.6g (%d samples beyond, n=%d)", t.Percentile, t.Value, t.Beyond, t.N)
}
