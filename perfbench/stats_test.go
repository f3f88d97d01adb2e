package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the rule must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n       int
		ok      bool
		pct, at float64
	}{
		{0, false, 0, 0},
		{10, false, 0, 0}, // 10 samples: none has 10 beyond it
		{11, true, 100.0 / 11, 1},
		{20, true, 50, 10},
		{100, true, 90, 90},
	} {
		got := tailPercentile(seq(tc.n))
		if got.OK != tc.ok || got.N != tc.n {
			t.Errorf("n=%d: ok=%v n=%d, want ok=%v", tc.n, got.OK, got.N, tc.ok)
			continue
		}
		if !tc.ok {
			continue
		}
		if got.Percentile != tc.pct || got.Value != tc.at || got.Beyond != tailBeyond {
			t.Errorf("n=%d: p%.4g=%v beyond %d, want p%.4g=%v beyond %d",
				tc.n, got.Percentile, got.Value, got.Beyond, tc.pct, tc.at, tailBeyond)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}
