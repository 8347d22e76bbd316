package lp

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// trivialLP builds a small feasible LP with a few pivots of work.
func trivialLP() *Problem {
	p := NewProblem()
	x := p.AddVariable("x", -3, 10)
	y := p.AddVariable("y", -2, 10)
	z := p.AddVariable("z", -1, 10)
	p.AddConstraint(Constraint{
		Coefs: []Coef{{x, 1}, {y, 2}, {z, 1}}, Sense: LE, RHS: 12,
	})
	p.AddConstraint(Constraint{
		Coefs: []Coef{{x, 2}, {y, 1}}, Sense: LE, RHS: 9,
	})
	return p
}

// TestExpiredContextReturnsFast is the acceptance check: a solve handed an
// already-expired context returns a cancellation status well inside 100ms.
func TestExpiredContextReturnsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()

	cases := []struct {
		name string
		ctx  context.Context
		want Status
	}{
		{"canceled", ctx, Canceled},
		{"deadline", dctx, DeadlineExceeded},
	}
	for _, method := range []Method{MethodDense, MethodAuto} {
		for _, c := range cases {
			t.Run(kernelNames[method]+"/"+c.name, func(t *testing.T) {
				start := time.Now()
				sol, err := trivialLP().SolveOpts(Options{Method: method, Ctx: c.ctx, CheckEvery: 1})
				if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
					t.Fatalf("expired-context solve took %v, want <100ms", elapsed)
				}
				if err != nil {
					t.Fatalf("err = %v, want nil (cancellation travels on status)", err)
				}
				if sol.Status != c.want {
					t.Fatalf("status = %v, want %v", sol.Status, c.want)
				}
			})
		}
	}
}

// TestMidSolveCancellation cancels during the pivot loop via a hook-driven
// context and checks the partial solution carries the iteration count.
func TestMidSolveCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	hook := func(site string) error {
		if site == "lp.pivot" {
			calls++
			if calls >= 2 {
				cancel()
			}
		}
		return nil
	}
	sol, err := trivialLP().SolveOpts(Options{Ctx: ctx, Hook: hook, CheckEvery: 1})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	// The problem is tiny; it may finish before the checkpoint fires. What
	// must hold: a cancellation status implies a recorded iteration count.
	if sol.Status == Canceled && sol.Iterations == 0 {
		t.Fatalf("canceled mid-solve with Iterations=0: %+v", sol)
	}
}

func TestIterationLimitPartialSolution(t *testing.T) {
	for _, method := range []Method{MethodDense, MethodAuto} {
		sol, err := trivialLP().SolveOpts(Options{Method: method, MaxIter: 1})
		if err != nil {
			t.Fatalf("method %v: err = %v", method, err)
		}
		if sol.Status != IterationLimit {
			t.Fatalf("method %v: status = %v, want IterationLimit", method, sol.Status)
		}
		if sol.Iterations < 1 {
			t.Fatalf("method %v: Iterations = %d, want ≥1", method, sol.Iterations)
		}
	}
}

func TestSolveErrorCarriesProblemContext(t *testing.T) {
	p := trivialLP()
	p.SetName("ctx-carrier")
	boom := errors.New("boom")
	_, err := p.SolveOpts(Options{Hook: func(string) error { return boom }, CheckEvery: 1})
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T (%v), want *SolveError", err, err)
	}
	if se.Problem != "ctx-carrier" || !errors.Is(err, boom) {
		t.Fatalf("SolveError = %+v, want Problem=ctx-carrier wrapping boom", se)
	}
}

func TestValidateRejectsHostileNumbers(t *testing.T) {
	build := func(mutate func(p *Problem)) error {
		p := trivialLP()
		mutate(p)
		_, err := p.SolveOpts(Options{})
		return err
	}
	cases := map[string]func(p *Problem){
		"nan-objective": func(p *Problem) { p.AddVariable("bad", math.NaN(), 1) },
		"inf-objective": func(p *Problem) { p.AddVariable("bad", math.Inf(1), 1) },
		"nan-upper":     func(p *Problem) { p.AddVariable("bad", 1, math.NaN()) },
		"nan-rhs": func(p *Problem) {
			p.AddConstraint(Constraint{Coefs: []Coef{{0, 1}}, Sense: LE, RHS: math.NaN()})
		},
		"inf-coef": func(p *Problem) {
			p.AddConstraint(Constraint{Coefs: []Coef{{0, math.Inf(-1)}}, Sense: LE, RHS: 1})
		},
	}
	for name, mutate := range cases {
		if err := build(mutate); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: err = %v, want ErrBadProblem", name, err)
		}
	}
}
