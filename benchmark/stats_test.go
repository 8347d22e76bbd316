package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 5, 4, 6}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.01, 1}, {0, 1},
	} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	// 144 trials, as one figs-graph op has: p90 leaves 14 samples beyond it.
	many := make([]float64, 144)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := percentile(many, 0.9); got != 130 {
		t.Errorf("percentile(1..144, 0.9) = %g, want 130", got)
	}
	if xs[0] != 7 {
		t.Error("percentile reordered its input")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %g, want 2.5", got)
	}
}

func TestFrac(t *testing.T) {
	if got := frac(39, 150); got != 0.26 {
		t.Errorf("frac(39, 150) = %g, want 0.26", got)
	}
	if got := frac(0, 0); got != 0 {
		t.Errorf("frac(0, 0) = %g, want 0", got)
	}
}
