// Package defense implements Section II-F: every actor is a defender who
// invests a limited budget MD(a) in protecting its own assets against the
// strategic adversary, and actors with aligned incentives may pool defensive
// costs (Section II-F3).
//
// Independent defense (Eqs. 12–14) reduces, per actor, to a 0/1 knapsack:
// defending target t averts the expected loss Pa(t)·Ps(t)·loss(a,t) at price
// Cd(t), subject to Σ Cd·D ≤ MD(a). Collaborative defense (Eqs. 15–18)
// shares each target's cost across the cooperating set CD(t) — every actor
// harmed by the target — in proportion to their individual losses
// (Eq. 15), and is a multi-dimensional knapsack with one budget row per
// actor, solved exactly.
//
// The attack probabilities Pa come from the defender's model of the
// adversary (Section II-F2): she perturbs her own (already noisy) impact
// matrix I′ with her estimate of the adversary's knowledge to get samples of
// I″, solves the SA for each sample, and uses attack frequencies.
package defense

import (
	"errors"
	"fmt"
	"sort"

	"cpsguard/internal/actors"
	"cpsguard/internal/adversary"
	"cpsguard/internal/impact"
	"cpsguard/internal/knapsack"
	"cpsguard/internal/noise"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/telemetry"
)

// Costs maps target IDs to their defense cost Cd(t).
type Costs map[string]float64

// UniformCosts assigns the same Cd to every listed target.
func UniformCosts(ids []string, cd float64) Costs {
	c := make(Costs, len(ids))
	for _, id := range ids {
		c[id] = cd
	}
	return c
}

// Investment is one actor's chosen defense.
type Investment struct {
	// Defended is the set of protected asset IDs.
	Defended map[string]bool
	// Spent is the total defense expenditure (shared-cost fractions for
	// collaborative plans).
	Spent float64
	// AvertedExpectedLoss is the objective value: the expected loss the
	// investment prevents under the defender's model.
	AvertedExpectedLoss float64
}

// loss returns the positive loss actor a believes it suffers from target t.
func loss(m *impact.Matrix, a, t string) float64 {
	if v := m.Get(a, t); v < 0 {
		return -v
	}
	return 0
}

// IndependentConfig states one actor's defense problem.
type IndependentConfig struct {
	// Actor is the defending actor.
	Actor string
	// Matrix is the defender's believed impact matrix I′.
	Matrix *impact.Matrix
	// Ownership determines which targets the actor may defend (only its
	// own assets, per Section II-F1).
	Ownership actors.Ownership
	// AttackProb is Pa(t) (zero for absent keys).
	AttackProb map[string]float64
	// SuccessProb is Ps(t) (defaults to 1 for absent keys).
	SuccessProb map[string]float64
	// Costs is Cd(t).
	Costs Costs
	// Budget is MD(actor).
	Budget float64
}

func successProb(m map[string]float64, t string) float64 {
	if m == nil {
		return 1
	}
	if v, ok := m[t]; ok {
		return v
	}
	return 1
}

// PlanIndependent solves Eqs. 12–14 exactly for one actor. A panic in the
// knapsack layer (e.g. poisoned inputs) is recovered and returned as an
// error so a single bad trial cannot crash a Monte-Carlo run.
func PlanIndependent(cfg IndependentConfig) (inv *Investment, err error) {
	defer func() {
		mIndependent.Inc()
		if err != nil {
			mPlanErrors.Inc()
			return
		}
		mDefended.Add(int64(len(inv.Defended)))
		mDefendedHist.Observe(int64(len(inv.Defended)))
	}()
	defer func() {
		if r := recover(); r != nil {
			inv, err = nil, fmt.Errorf("defense: independent plan for %s panicked: %v", cfg.Actor, r)
		}
	}()
	if cfg.Matrix == nil {
		return nil, errors.New("defense: nil impact matrix")
	}
	owned := cfg.Ownership.Assets(cfg.Actor)
	var ids []string
	var values, weights []float64
	for _, t := range owned {
		cd, ok := cfg.Costs[t]
		if !ok {
			continue // cost unknown → not defendable
		}
		avert := cfg.AttackProb[t] * successProb(cfg.SuccessProb, t) * loss(cfg.Matrix, cfg.Actor, t)
		net := avert - cd
		if net <= 0 {
			continue // PsPaI ≤ Cd → never defend (Section II-F)
		}
		ids = append(ids, t)
		values = append(values, net)
		weights = append(weights, cd)
	}
	chosen, val := knapsack.Solve(values, weights, cfg.Budget)
	inv = &Investment{Defended: map[string]bool{}, AvertedExpectedLoss: val}
	for _, i := range chosen {
		inv.Defended[ids[i]] = true
		inv.Spent += weights[i]
	}
	return inv, nil
}

// PlanAllIndependent runs PlanIndependent for every actor in the ownership
// with a uniform per-actor budget, returning investments keyed by actor.
func PlanAllIndependent(m *impact.Matrix, o actors.Ownership, pa map[string]float64,
	costs Costs, budgetPerActor float64) (map[string]*Investment, error) {
	out := map[string]*Investment{}
	for _, a := range o.Actors() {
		inv, err := PlanIndependent(IndependentConfig{
			Actor: a, Matrix: m, Ownership: o,
			AttackProb: pa, Costs: costs, Budget: budgetPerActor,
		})
		if err != nil {
			return nil, fmt.Errorf("defense: actor %s: %w", a, err)
		}
		out[a] = inv
	}
	return out, nil
}

// Union merges per-actor investments into the system-wide defended set.
func Union(invs map[string]*Investment) map[string]bool {
	d := map[string]bool{}
	for _, inv := range invs {
		for t := range inv.Defended {
			d[t] = true
		}
	}
	return d
}

// CollaborativeConfig states the pooled defense problem of Eqs. 15–18.
type CollaborativeConfig struct {
	// Matrix is the shared believed impact matrix. Per-actor attack
	// probabilities (Pa(a,t) in Eq. 16) may differ; see AttackProb.
	Matrix *impact.Matrix
	// Ownership enumerates the actors (any actor harmed by a target may
	// join its defense, regardless of ownership — Section II-F3's
	// example is buyers pooling to defend a supplier they don't own).
	Ownership actors.Ownership
	// AttackProb maps actor → target → Pa(a,t). A nil inner map for an
	// actor means Pa = 0 for all targets; use SharedAttackProb to give
	// every actor the same view.
	AttackProb map[string]map[string]float64
	// SuccessProb is Ps(t) (defaults to 1).
	SuccessProb map[string]float64
	// Costs is Cd(t) — the full cost, shared by Eq. 15 when defended.
	Costs Costs
	// Budget maps actor → MD(a).
	Budget map[string]float64
}

// SharedAttackProb replicates one Pa map for every actor in the matrix.
func SharedAttackProb(m *impact.Matrix, pa map[string]float64) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, a := range m.Actors {
		out[a] = pa
	}
	return out
}

// CollabInvestment is the outcome of collaborative planning.
type CollabInvestment struct {
	// Defended is the set of protected assets.
	Defended map[string]bool
	// Share maps actor → target → the cost share Ccd(a,t) it pays.
	Share map[string]map[string]float64
	// TotalValue is the objective of Eq. 16 restricted to defended
	// targets (expected averted loss minus full costs).
	TotalValue float64
}

// PlanCollaborative solves Eqs. 15–18 exactly as a multi-dimensional
// knapsack (one cost-share budget row per actor). Panics in the knapsack
// layer are recovered and returned as errors.
func PlanCollaborative(cfg CollaborativeConfig) (inv *CollabInvestment, err error) {
	defer func() {
		mCollab.Inc()
		if err != nil {
			mPlanErrors.Inc()
			return
		}
		mDefended.Add(int64(len(inv.Defended)))
		mDefendedHist.Observe(int64(len(inv.Defended)))
	}()
	defer func() {
		if r := recover(); r != nil {
			inv, err = nil, fmt.Errorf("defense: collaborative plan panicked: %v", r)
		}
	}()
	if cfg.Matrix == nil {
		return nil, errors.New("defense: nil impact matrix")
	}
	// The cooperating pool includes every actor harmed by a target, not
	// just asset owners (Section II-F3's buyers defending a supplier), so
	// enumerate the union of matrix actors and owners.
	actSet := map[string]bool{}
	for _, a := range cfg.Matrix.Actors {
		actSet[a] = true
	}
	for _, a := range cfg.Ownership.Actors() {
		actSet[a] = true
	}
	acts := make([]string, 0, len(actSet))
	for a := range actSet {
		acts = append(acts, a)
	}
	sort.Strings(acts)
	targets := make([]string, 0, len(cfg.Costs))
	for t := range cfg.Costs {
		targets = append(targets, t)
	}
	sort.Strings(targets)

	var ids []string
	var values []float64
	shares := map[string]map[string]float64{} // target → actor → share
	weights := make([][]float64, len(acts))
	budgets := make([]float64, len(acts))
	for d, a := range acts {
		budgets[d] = cfg.Budget[a]
		weights[d] = nil // filled per target below
	}

	for _, t := range targets {
		cd := cfg.Costs[t]
		ps := successProb(cfg.SuccessProb, t)
		// CD(t): actors with a loss at t (negative believed impact).
		totalLoss := 0.0
		perLoss := map[string]float64{}
		for _, a := range acts {
			if l := loss(cfg.Matrix, a, t); l > 0 {
				perLoss[a] = l
				totalLoss += l
			}
		}
		if totalLoss == 0 {
			continue // nobody is harmed; no cooperating set
		}
		// Expected averted loss across the cooperating set, with each
		// defender's own perceived attack probability (Eq. 16).
		avert := 0.0
		for a, l := range perLoss {
			pa := 0.0
			if row := cfg.AttackProb[a]; row != nil {
				pa = row[t]
			}
			avert += pa * ps * l
		}
		net := avert - cd
		if net <= 0 {
			continue
		}
		ids = append(ids, t)
		values = append(values, net)
		share := map[string]float64{}
		for a, l := range perLoss {
			share[a] = cd * l / totalLoss // Eq. 15
		}
		shares[t] = share
		for d, a := range acts {
			weights[d] = append(weights[d], share[a])
		}
	}

	chosen, val := knapsack.SolveMulti(values, weights, budgets)
	inv = &CollabInvestment{
		Defended:   map[string]bool{},
		Share:      map[string]map[string]float64{},
		TotalValue: val,
	}
	for _, i := range chosen {
		t := ids[i]
		inv.Defended[t] = true
		for a, s := range shares[t] {
			if inv.Share[a] == nil {
				inv.Share[a] = map[string]float64{}
			}
			inv.Share[a][t] = s
		}
	}
	return inv, nil
}

// EstimateAttackProb implements Section II-F2: the defender perturbs her
// believed impact matrix with her estimate sigmaSpec of the adversary's
// knowledge noise, solves the SA for each of samples draws, and returns the
// attack frequency per target. Sampling fans out across cores.
//
// Each sample runs the exact adversary search (adversary.Solve), and the
// pool's context (par.Context) is threaded into every solve so
// cancellation stops in-flight searches.
func EstimateAttackProb(believed *impact.Matrix, targets []adversary.Target,
	budget float64, sigmaSpec float64, samples int, seed uint64,
	par parallel.Options) (map[string]float64, error) {
	if samples <= 0 {
		return nil, errors.New("defense: samples must be positive")
	}
	mPaEstimates.Inc()
	mPaSamples.Add(int64(samples))
	sp, spanCtx := telemetry.Default().StartSpanCtx(par.Context, "defense.pa_estimate", "")
	if sp != nil {
		sp.SetWork(int64(samples))
		par.Context = spanCtx // per-sample adversary solves nest under this span
		defer sp.End()
	}
	plans, err := parallel.Map(samples, par, func(i int) ([]string, error) {
		rs := rng.Derive(seed, uint64(i))
		view := *believed // shallow copy; IM replaced below
		view.IM = noise.PerturbMatrix(believed.IM, sigmaSpec, rs)
		p, err := adversary.Solve(adversary.Config{
			Matrix: &view, Targets: targets, Budget: budget,
			Ctx: par.Context,
		})
		if err != nil {
			return nil, err
		}
		return p.Targets, nil
	})
	if err != nil {
		return nil, err
	}
	pa := map[string]float64{}
	for _, ts := range plans {
		for _, t := range ts {
			pa[t] += 1.0 / float64(samples)
		}
	}
	return pa, nil
}
