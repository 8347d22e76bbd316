package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1): the
// smallest sample with at least ⌈q·n⌉ samples at or below it. Unlike an
// interpolating rule it always reports a value that was measured, and with
// n samples it leaves ⌊(1−q)·n⌋ samples strictly beyond it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples when len(xs) is even.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// frac returns num/den, or 0 when den is zero (the ratio's layer did no
// work).
func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
