package lp

// The KKT certificate: an O(nnz) check that an Optimal solution is what it
// claims to be, independent of the method that produced it. Profit division
// prices everything off Solution.Duals and BoundDuals, so a wrong dual would
// corrupt every profit figure without any solver error; the certificate
// checks the duals, not only the objective.

import (
	"fmt"
	"math"
)

// kktTol is the certificate's single tolerance policy: a residual r measured
// against a magnitude scale passes when |r| ≤ abs + rel·scale. The absolute
// part covers quantities that should vanish (a zero dual, a slack at zero);
// the relative part covers rounding that grows with the terms summed. Dual
// quantities are scaled by at least max|c|, the magnitude they are computed
// from, so a rounding-level dual on a wide slack still passes.
var kktTol = struct{ abs, rel float64 }{abs: 1e-9, rel: 1e-9}

func kktOK(r, scale float64) bool { return math.Abs(r) <= kktTol.abs+kktTol.rel*scale }

// CheckKKT certifies an Optimal solution of p. It checks primal feasibility
// (rows and 0 ≤ x ≤ u) and that Objective is cᵀx; it also checks dual
// feasibility (row-dual signs by sense, BoundDuals ≤ 0 and zero
// on infinite bounds, reduced costs c − Aᵀy − w ≥ 0), complementary
// slackness on every row, bound and column, and a zero duality gap
// cᵀx = bᵀy + uᵀw. It returns nil or an error naming the first violation.
func CheckKKT(p *Problem, sol *Solution) error {
	n := len(p.obj)
	if sol.Status != Optimal {
		return fmt.Errorf("kkt: status %v is not optimal", sol.Status)
	}
	if len(sol.X) != n {
		return fmt.Errorf("kkt: %d primal values for %d variables", len(sol.X), n)
	}
	var cx, cxScale float64
	for j, x := range sol.X {
		if u := p.upper[j]; !kktOK(math.Min(x, 0), 0) || !kktOK(math.Max(x-u, 0), u) {
			return fmt.Errorf("kkt: x[%d] = %v outside [0, %v]", j, x, u)
		}
		cx += p.obj[j] * x
		cxScale += math.Abs(p.obj[j] * x)
	}
	if !kktOK(sol.Objective-cx, cxScale) {
		return fmt.Errorf("kkt: objective %v but cᵀx = %v", sol.Objective, cx)
	}

	// One pass over the rows: primal residuals, then each row's dual sign,
	// slackness and share of Aᵀy.
	if len(sol.Duals) != len(p.rows) || len(sol.BoundDuals) != n {
		return fmt.Errorf("kkt: %d row duals and %d bound duals for %d rows and %d variables",
			len(sol.Duals), len(sol.BoundDuals), len(p.rows), n)
	}
	aty, atyScale := make([]float64, n), make([]float64, n)
	var by, byScale, dualScale float64
	for _, c := range p.obj {
		dualScale = math.Max(dualScale, math.Abs(c))
	}
	for i, row := range p.rows {
		lhs, lhsScale := 0.0, math.Abs(row.RHS)
		for _, co := range row.Coefs {
			lhs += co.Value * sol.X[co.Var]
			lhsScale += math.Abs(co.Value * sol.X[co.Var])
		}
		slack := lhs - row.RHS
		var viol float64
		switch row.Sense {
		case LE:
			viol = math.Max(slack, 0)
		case GE:
			viol = math.Min(slack, 0)
		default:
			viol = slack
		}
		if !kktOK(viol, lhsScale) {
			return fmt.Errorf("kkt: row %d (%s): lhs %v %v %v", i, row.Name, lhs, row.Sense, row.RHS)
		}
		y := sol.Duals[i]
		if (row.Sense == LE && !kktOK(math.Max(y, 0), dualScale)) ||
			(row.Sense == GE && !kktOK(math.Min(y, 0), dualScale)) {
			return fmt.Errorf("kkt: row %d (%s, %v): dual %v has the wrong sign", i, row.Name, row.Sense, y)
		}
		if !kktOK(y*slack, (dualScale+math.Abs(y))*lhsScale) {
			return fmt.Errorf("kkt: row %d (%s): dual %v on slack %v", i, row.Name, y, slack)
		}
		by += y * row.RHS
		byScale += math.Abs(y * row.RHS)
		for _, co := range row.Coefs {
			aty[co.Var] += co.Value * y
			atyScale[co.Var] += math.Abs(co.Value * y)
		}
	}
	uw, uwScale := 0.0, 0.0
	for j, x := range sol.X {
		u, w := p.upper[j], sol.BoundDuals[j]
		if math.IsInf(u, 1) {
			if w != 0 {
				return fmt.Errorf("kkt: x[%d] has no upper bound but bound dual %v", j, w)
			}
		} else {
			if !kktOK(math.Max(w, 0), dualScale) {
				return fmt.Errorf("kkt: x[%d]: bound dual %v is positive", j, w)
			}
			if !kktOK(w*(u-x), (dualScale+math.Abs(w))*(u+math.Abs(x))) {
				return fmt.Errorf("kkt: x[%d] = %v below its bound %v with bound dual %v", j, x, u, w)
			}
			uw += u * w
			uwScale += math.Abs(u * w)
		}
		r := p.obj[j] - aty[j] - w
		rScale := math.Abs(p.obj[j]) + atyScale[j] + math.Abs(w)
		if !kktOK(math.Min(r, 0), rScale) {
			return fmt.Errorf("kkt: x[%d] = %v (upper %v, bound dual %v): reduced cost %v is negative", j, x, p.upper[j], w, r)
		}
		if !kktOK(r*x, math.Abs(x)*rScale) {
			return fmt.Errorf("kkt: x[%d] = %v with reduced cost %v", j, x, r)
		}
	}
	if gap := cx - by - uw; !kktOK(gap, cxScale+byScale+uwScale) {
		return fmt.Errorf("kkt: duality gap %v (cᵀx %v, bᵀy %v, uᵀw %v)", gap, cx, by, uw)
	}
	return nil
}
