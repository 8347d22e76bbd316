package lp

import (
	"math"
	"testing"
)

// TestHarrisRatioTest drives ratioTest on hand-built columns. Column 0
// enters increasing from its lower bound; column i+1 is basic in row i. The
// step must never be negative, even past a basic value that drifted below
// −clampNegative, and the leaving row must carry the largest |w_i| among
// the rows that block within the Harris bound (the smallest ratio with
// every basic value relaxed by tol).
func TestHarrisRatioTest(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name      string
		enterUp   float64
		upper     []float64 // of the basic columns
		x, w      []float64
		wantLeave int
		wantStep  float64
	}{
		{
			// The 16-region national DC-OPF's failure: a rounding-level
			// entry on a value a little below zero blocks first, at a
			// negative step. Row 1's steady pivot blocks within the bound.
			name:      "drifted",
			enterUp:   inf,
			upper:     []float64{inf, inf, inf},
			x:         []float64{-1e-10, 0, 5},
			w:         []float64{2.6e-9, 3.7, 1},
			wantLeave: 1, wantStep: 0,
		},
		{
			name:      "drifted-alone",
			enterUp:   inf,
			upper:     []float64{inf, inf},
			x:         []float64{-5e-9, 1},
			w:         []float64{2.6e-9, 1},
			wantLeave: 0, wantStep: 0,
		},
		{
			// A near tie: row 0 blocks first by less than tol/|w|, row 1
			// with the larger pivot wins.
			name:      "near-tie",
			enterUp:   inf,
			upper:     []float64{inf, inf},
			x:         []float64{1, 2 + 1e-10},
			w:         []float64{1, 2},
			wantLeave: 1, wantStep: 1 + 5e-11,
		},
		{
			// A rising basic value blocks at its upper bound.
			name:      "upper",
			enterUp:   inf,
			upper:     []float64{4, inf},
			x:         []float64{3, 10},
			w:         []float64{-2, 1},
			wantLeave: 0, wantStep: 0.5,
		},
		{
			name:      "flip",
			enterUp:   0.25,
			upper:     []float64{inf},
			x:         []float64{1},
			w:         []float64{2},
			wantLeave: -1, wantStep: 0.25,
		},
		{
			name:      "unbounded",
			enterUp:   inf,
			upper:     []float64{inf},
			x:         []float64{1},
			w:         []float64{-1},
			wantLeave: -1, wantStep: inf,
		},
	}
	for _, c := range cases {
		m := len(c.x)
		s := &simplex{
			form:  &form{m: m, upper: append([]float64{c.enterUp}, c.upper...)},
			basis: make([]int, m),
			x:     c.x,
			w:     c.w,
		}
		for i := range s.basis {
			s.basis[i] = i + 1
		}
		step, leave, toUpper := s.ratioTest(0, 1)
		if step < 0 || leave != c.wantLeave || math.Abs(step-c.wantStep) > 1e-15 {
			t.Errorf("%s: step %v, leave %d; want step %v, leave %d", c.name, step, leave, c.wantStep, c.wantLeave)
			continue
		}
		if leave < 0 {
			continue
		}
		if toUpper != (c.w[leave] < 0) {
			t.Errorf("%s: leaves to upper = %v with w = %v", c.name, toUpper, c.w[leave])
		}
		// The Harris bound, and the largest pivot among the rows that
		// block within it.
		ratio := func(i int, slack float64) float64 {
			if c.w[i] > tol {
				return (c.x[i] + slack) / c.w[i]
			}
			if c.w[i] < -tol {
				return (c.upper[i] - c.x[i] + slack) / -c.w[i]
			}
			return inf
		}
		bound := inf
		for i := range c.x {
			bound = math.Min(bound, ratio(i, tol))
		}
		for i := range c.x {
			if ratio(i, 0) <= bound && math.Abs(c.w[i]) > math.Abs(c.w[leave]) {
				t.Errorf("%s: picked |w| = %v, row %d blocks within the bound with |w| = %v",
					c.name, math.Abs(c.w[leave]), i, math.Abs(c.w[i]))
			}
		}
	}
}
