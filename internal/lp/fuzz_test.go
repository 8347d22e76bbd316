package lp

import (
	"errors"
	"math"
	"testing"

	"cpsguard/internal/rng"
)

// FuzzSolveAgreement decodes a byte string into a small random LP, solves
// it with the bounded tableau and the rows reference, and checks: no panics,
// statuses agree, optimal objectives match, and both optimal results pass
// the KKT certificate — an adversarial extension of TestMethodsAgree driven
// by the fuzzer's corpus evolution.
func FuzzSolveAgreement(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2))
	f.Add(uint64(42), uint8(1), uint8(0))
	f.Add(uint64(7), uint8(6), uint8(5))
	f.Fuzz(func(t *testing.T, seed uint64, nvRaw, ncRaw uint8) {
		nv := 1 + int(nvRaw)%7
		nc := int(ncRaw) % 6
		rs := rng.New(seed)
		p := NewProblem()
		for j := 0; j < nv; j++ {
			u := math.Inf(1)
			if rs.Intn(2) == 0 {
				u = rs.Float64() * 12
			}
			p.AddVariable("v", (rs.Float64()-0.5)*8, u)
		}
		for i := 0; i < nc; i++ {
			var coefs []Coef
			for j := 0; j < nv; j++ {
				if rs.Intn(2) == 0 {
					coefs = append(coefs, Coef{j, (rs.Float64() - 0.5) * 6})
				}
			}
			if len(coefs) == 0 {
				coefs = append(coefs, Coef{0, 1})
			}
			p.AddConstraint(Constraint{
				Coefs: coefs,
				Sense: Sense(rs.Intn(3)),
				RHS:   (rs.Float64() - 0.5) * 10,
			})
		}
		r1, err1 := solveRows(p, Options{})
		r2, err2 := p.SolveOpts(Options{Method: MethodDense})
		if err2 != nil {
			t.Fatalf("dense: well-formed problem returned an error: %v", err2)
		}
		if err1 != nil {
			// The reference's Bᵀy = c_B solve may meet a singular basis
			// on redundant rows; nothing else may fail.
			if !errors.Is(err1, errRefSingularBasis) {
				t.Fatalf("reference: %v", err1)
			}
			return
		}
		if r1.Status != r2.Status {
			t.Fatalf("status mismatch: %v vs %v", r1.Status, r2.Status)
		}
		if r1.Status != Optimal {
			return
		}
		scale := 1 + math.Abs(r1.Objective)
		if math.Abs(r1.Objective-r2.Objective) > 1e-5*scale {
			t.Fatalf("objective mismatch: %v vs %v", r1.Objective, r2.Objective)
		}
		for _, sol := range []*Solution{r1, r2} {
			if err := CheckKKT(p, sol); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzHostileInputs builds LPs whose numeric fields are corrupted with
// NaN/±Inf at fuzzer-chosen positions and checks the failure semantics:
// no panic escapes, corrupted problems are rejected with ErrBadProblem,
// and accepted problems terminate with a well-defined status.
func FuzzHostileInputs(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(2), uint8(0b101))
	f.Add(uint64(9), uint8(5), uint8(4), uint8(0xFF))
	f.Add(uint64(3), uint8(2), uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nvRaw, ncRaw, poison uint8) {
		nv := 1 + int(nvRaw)%6
		nc := int(ncRaw) % 5
		rs := rng.New(seed)
		hostile := [3]float64{math.NaN(), math.Inf(1), math.Inf(-1)}
		pick := func(bit uint8, v float64) float64 {
			if poison&bit != 0 && rs.Intn(3) == 0 {
				return hostile[rs.Intn(3)]
			}
			return v
		}
		p := NewProblem()
		corrupted := false
		for j := 0; j < nv; j++ {
			c := pick(1, (rs.Float64()-0.5)*8)
			u := pick(2, rs.Float64()*12)
			if math.IsNaN(c) || math.IsInf(c, 0) || math.IsNaN(u) || u < 0 {
				corrupted = true
			}
			p.AddVariable("v", c, u)
		}
		for i := 0; i < nc; i++ {
			var coefs []Coef
			for j := 0; j < nv; j++ {
				v := pick(4, (rs.Float64()-0.5)*6)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					corrupted = true
				}
				coefs = append(coefs, Coef{j, v})
			}
			rhs := pick(8, (rs.Float64()-0.5)*10)
			if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
				corrupted = true
			}
			p.AddConstraint(Constraint{Coefs: coefs, Sense: Sense(rs.Intn(3)), RHS: rhs})
		}
		for _, m := range [2]Method{MethodDense, MethodAuto} {
			sol, err := p.SolveOpts(Options{Method: m})
			if corrupted {
				if err == nil || !errors.Is(err, ErrBadProblem) {
					t.Fatalf("method %v: corrupted problem accepted (err=%v)", m, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("method %v: well-formed problem returned an error: %v", m, err)
			}
			switch sol.Status {
			case Optimal, Infeasible, Unbounded, IterationLimit:
			default:
				t.Fatalf("method %v: unexpected status %v", m, sol.Status)
			}
		}
	})
}
