package milp

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"cpsguard/internal/lp"
)

// knapsackMILP builds a small 0/1 knapsack whose relaxation is fractional,
// forcing real branching.
func knapsackMILP(n int) Problem {
	p := lp.NewProblem()
	p.SetName("knapsack-test")
	var coefs []lp.Coef
	binary := make([]int, n)
	for i := 0; i < n; i++ {
		// Values chosen so no greedy prefix is integral at the relaxation.
		v := p.AddVariable("x", -(3.0 + float64(i%4)), 1)
		binary[i] = v
		coefs = append(coefs, lp.Coef{Var: v, Value: 2 + float64(i%3)})
	}
	// Fractional budget keeps every relaxation from landing integral.
	p.AddConstraint(lp.Constraint{Coefs: coefs, Sense: lp.LE, RHS: float64(n) - 0.5})
	return Problem{LP: p, Binary: binary}
}

func TestExpiredContextReturnsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	sol, err := Solve(knapsackMILP(10), Options{Ctx: ctx})
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("expired-context solve took %v, want <100ms", elapsed)
	}
	if err != nil {
		t.Fatalf("err = %v, want nil", err)
	}
	if sol.Status != lp.Canceled {
		t.Fatalf("status = %v, want Canceled", sol.Status)
	}
}

func TestMidSearchCancellationKeepsIncumbent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	nodesSeen := 0
	hook := func(site string) error {
		if site == "milp.node" {
			nodesSeen++
			if nodesSeen >= 2 {
				cancel()
			}
		}
		return nil
	}
	sol, err := Solve(knapsackMILP(12), Options{Ctx: ctx, Hook: hook, CheckEvery: 1})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	if sol.Status != lp.Canceled && sol.Status != lp.Optimal {
		t.Fatalf("status = %v, want Canceled (mid-search) or Optimal (finished first)", sol.Status)
	}
	if sol.Status == lp.Canceled {
		if sol.Proven {
			t.Fatal("canceled solution claims proven optimality")
		}
		if sol.Nodes < 1 {
			t.Fatalf("Nodes = %d, want ≥1", sol.Nodes)
		}
	}
}

func TestMaxNodesNoIncumbent(t *testing.T) {
	// One node is never enough to find an integer incumbent here.
	sol, err := Solve(knapsackMILP(12), Options{MaxNodes: 1})
	if err != ErrNoIncumbent {
		t.Fatalf("err = %v, want ErrNoIncumbent (exact sentinel)", err)
	}
	if sol == nil {
		t.Fatal("solution is nil alongside ErrNoIncumbent; want partial state")
	}
	if sol.Status != lp.NodeLimit {
		t.Fatalf("status = %v, want NodeLimit", sol.Status)
	}
	if sol.Nodes < 1 {
		t.Fatalf("Nodes = %d, want ≥1", sol.Nodes)
	}
}

func TestCancellationWithIncumbentIsUnproven(t *testing.T) {
	// Cancellation is the one exit that returns an incumbent unproven:
	// stop the search at every node checkpoint in turn until one stop
	// lands after the first incumbent and before the proof.
	full, err := Solve(knapsackMILP(12), Options{})
	if err != nil || full.Status != lp.Optimal || !full.Proven {
		t.Fatalf("reference solve: %+v, %v", full, err)
	}
	for stop := 1; stop <= full.Nodes; stop++ {
		calls := 0
		hook := func(string) error {
			if calls++; calls > stop {
				return context.Canceled
			}
			return nil
		}
		sol, err := Solve(knapsackMILP(12), Options{Hook: hook, CheckEvery: 1})
		if err != nil {
			t.Fatalf("stop %d: err = %v", stop, err)
		}
		if sol.Status != lp.Canceled || sol.X == nil {
			continue
		}
		if sol.Proven {
			t.Fatalf("stop %d: canceled incumbent claims proven optimality", stop)
		}
		if sol.Objective < full.Objective-1e-9 {
			t.Fatalf("stop %d: incumbent %v better than optimum %v", stop, sol.Objective, full.Objective)
		}
		return
	}
	t.Fatal("no cancellation point left an incumbent in hand")
}

func TestHookErrorAbortsWithSolveError(t *testing.T) {
	boom := errors.New("boom")
	_, err := Solve(knapsackMILP(10), Options{
		Hook: func(string) error { return boom }, CheckEvery: 1,
	})
	var se *lp.SolveError
	if !errors.As(err, &se) || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want *lp.SolveError wrapping boom", err)
	}
	if se.Problem != "knapsack-test" || se.Stage != "milp.node" {
		t.Fatalf("SolveError = %+v, want Problem=knapsack-test Stage=milp.node", se)
	}
}

func TestValidateRejectsBadIngestion(t *testing.T) {
	good := knapsackMILP(3)
	cases := map[string]Problem{
		"nil-lp":            {LP: nil, Binary: []int{0}},
		"out-of-range":      {LP: good.LP, Binary: []int{99}},
		"negative-index":    {LP: good.LP, Binary: []int{-1}},
		"binary-upper-gt-1": binaryUpperTwo(),
	}
	for name, p := range cases {
		if _, err := Solve(p, Options{}); !errors.Is(err, lp.ErrBadProblem) {
			t.Errorf("%s: err = %v, want ErrBadProblem", name, err)
		}
	}
}

func binaryUpperTwo() Problem {
	p := lp.NewProblem()
	v := p.AddVariable("x", -1, 2)
	p.AddConstraint(lp.Constraint{Coefs: []lp.Coef{{Var: v, Value: 1}}, Sense: lp.LE, RHS: 2})
	return Problem{LP: p, Binary: []int{v}}
}

func TestValidateRejectsNaNUpper(t *testing.T) {
	p := lp.NewProblem()
	v := p.AddVariable("x", -1, math.NaN())
	prob := Problem{LP: p, Binary: []int{v}}
	if _, err := Solve(prob, Options{}); !errors.Is(err, lp.ErrBadProblem) {
		t.Fatalf("err = %v, want ErrBadProblem", err)
	}
}
