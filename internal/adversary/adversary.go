// Package adversary implements the strategic adversary (SA) of Section
// II-E: a profit-seeking attacker who selects a budget-limited set of
// targets T and a set of actors A whose profit changes she captures
// (via stock or futures positions), maximizing
//
//	max_{T,A}  Σ_{t∈T} −Catk(t)  +  Σ_{j∈A} Σ_{t∈T} IM[j,t]·Ps(t)
//	s.t.       Σ_{t∈T} Catk(t) ≤ MA,  T(i),A(j) ∈ {0,1}
//
// (the paper's Eq. 8–11). For any fixed T the optimal A is closed-form —
// include actor j iff its captured sum is positive — so target selection
// reduces to a set search, which Solve solves exactly by depth-first branch
// and bound. A node with target set S is bounded by its exact value plus
// the positive optimistic values of the best targets left in the search
// order that still fit the remaining budget: value is subadditive over
// targets, and at most ⌊(MA − spent)/min Catk⌋ more of them are affordable
// (with the paper's uniform costs, the top (MA − |S|) tail values). If the
// node budget is exhausted anyway, the best incumbent (at least as good as
// greedy) is returned unproven, with Plan.Gap bounding its distance to the
// optimum. The tests cross-check Solve against the textbook linearization
// on the generic MILP engine.
package adversary

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"cpsguard/internal/impact"
	"cpsguard/internal/telemetry"
)

// Target describes one attackable asset from the SA's point of view.
type Target struct {
	ID string
	// Cost is Catk(t), the expense of mounting the attack.
	Cost float64
	// SuccessProb is Ps(t) ∈ [0,1], the probability the attack succeeds
	// given it is attempted.
	SuccessProb float64
}

// UniformTargets builds a Target list with identical cost and success
// probability for every ID — the configuration used throughout the paper's
// experiments ("the costs are uniform across targets", Section III-C).
func UniformTargets(ids []string, cost, successProb float64) []Target {
	out := make([]Target, len(ids))
	for i, id := range ids {
		out[i] = Target{ID: id, Cost: cost, SuccessProb: successProb}
	}
	return out
}

// Config states one SA instance.
type Config struct {
	// Matrix is the SA's (possibly noise-perturbed) impact matrix.
	Matrix *impact.Matrix
	// Targets lists attack costs/success probabilities. Targets absent
	// from the matrix contribute no profit but still cost money; targets
	// absent from this list are not attackable.
	Targets []Target
	// Budget is MA, the maximum total attack expenditure.
	Budget float64
	// MaxNodes caps the exact search (default 2_000_000 nodes); on
	// exhaustion the best incumbent found so far (at least as good as
	// greedy) is returned with Proven=false and Plan.Gap set.
	MaxNodes int
	// Ctx, when non-nil, is checked every CheckEvery search nodes;
	// cancellation aborts the search and Solve returns the context error
	// (the incumbent is discarded — cancellation is a caller decision,
	// not a degradation).
	Ctx context.Context
	// CheckEvery is the node interval between Ctx checks (default 4096).
	CheckEvery int
}

func (c Config) checkEvery() int {
	if c.CheckEvery > 0 {
		return c.CheckEvery
	}
	return 4096
}

// Plan is a chosen attack.
type Plan struct {
	// Targets is the sorted set T of attacked asset IDs.
	Targets []string
	// Actors is the sorted set A of actors whose profit the SA captures.
	Actors []string
	// Anticipated is the SA's expected return under her own model
	// (Eq. 8's objective value).
	Anticipated float64
	// Proven reports whether the exact search completed.
	Proven bool
	// Gap bounds how far Anticipated can fall short of the optimum when
	// Solve stops at MaxNodes: the largest bound over the subtrees the
	// search left unexplored, minus Anticipated, clamped at 0. It is 0 for
	// a Proven plan.
	Gap float64
	// Nodes counts search nodes explored.
	Nodes int
}

// ErrNoTargets is returned when the configuration lists no targets.
var ErrNoTargets = errors.New("adversary: no targets configured")

// instance is the preprocessed search state.
type instance struct {
	ids    []string
	cost   []float64
	ps     []float64
	actors []string
	// im[j][i] = IM[actor j][target i] · Ps(i)
	im [][]float64
	// opt[i] = Σ_j max(0, im[j][i]) − cost[i], the subadditive
	// optimistic net value of target i.
	opt    []float64
	budget float64
}

func newInstance(cfg Config) (*instance, error) {
	if len(cfg.Targets) == 0 {
		return nil, ErrNoTargets
	}
	if cfg.Matrix == nil {
		return nil, errors.New("adversary: nil impact matrix")
	}
	m := cfg.Matrix
	in := &instance{budget: cfg.Budget, actors: m.Actors, im: make([][]float64, len(m.Actors))}
	for j := range in.im {
		in.im[j] = make([]float64, len(cfg.Targets))
	}
	for i, t := range cfg.Targets {
		if t.Cost < 0 || t.SuccessProb < 0 || t.SuccessProb > 1 ||
			math.IsNaN(t.Cost) || math.IsNaN(t.SuccessProb) {
			return nil, fmt.Errorf("adversary: bad target %+v", t)
		}
		in.ids = append(in.ids, t.ID)
		in.cost = append(in.cost, t.Cost)
		in.ps = append(in.ps, t.SuccessProb)
		c := m.Col(t.ID) // resolved once; −1 (every cell 0) when t is not in the matrix
		for j, row := range in.im {
			row[i] = m.At(j, c) * t.SuccessProb
		}
	}
	in.opt = make([]float64, len(in.ids))
	for i := range in.ids {
		v := -in.cost[i]
		for j := range in.actors {
			if x := in.im[j][i]; x > 0 {
				v += x
			}
		}
		in.opt[i] = v
	}
	return in, nil
}

// searchOrder returns the target indices to search, best optimistic value
// first, without the targets whose optimistic net value is strictly
// negative (opt[i] < −1e-9). By subadditivity such a target lowers any
// set's value by more than 1e-9, so it is never in the optimum; greedy never
// picks it (its gain is at most opt[i]), and the tail bound counts only
// max(opt, 0). The sort puts these targets last, so dropping them truncates
// the order and the survivors keep the relative order the full sort gave
// them (sort.Slice is unstable; tie resolution in the DFS depends on it).
func (in *instance) searchOrder() []int {
	order := make([]int, len(in.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return in.opt[order[a]] > in.opt[order[b]] })
	k := 0
	for k < len(order) && in.opt[order[k]] >= -1e-9 {
		k++
	}
	mPrunedTargets.Add(int64(len(order) - k))
	return order[:k]
}

// value computes the exact objective of a target set (indices) with the
// closed-form optimal actor choice, returning the value and chosen actors.
func (in *instance) value(set []int) (float64, []int) {
	mEvaluations.Inc()
	obj := 0.0
	for _, i := range set {
		obj -= in.cost[i]
	}
	var actorIdx []int
	for j := range in.actors {
		sum := 0.0
		for _, i := range set {
			sum += in.im[j][i]
		}
		if sum > 0 {
			obj += sum
			actorIdx = append(actorIdx, j)
		}
	}
	return obj, actorIdx
}

func (in *instance) plan(set []int, nodes int, proven bool) *Plan {
	val, actorIdx := in.value(set)
	p := &Plan{Anticipated: val, Proven: proven, Nodes: nodes}
	for _, i := range set {
		p.Targets = append(p.Targets, in.ids[i])
	}
	for _, j := range actorIdx {
		p.Actors = append(p.Actors, in.actors[j])
	}
	sort.Strings(p.Targets)
	sort.Strings(p.Actors)
	return p
}

// Solve finds the optimal attack by branch and bound. The empty attack
// (value 0) is always feasible, so Anticipated ≥ 0.
func Solve(cfg Config) (plan *Plan, err error) {
	sp, _ := telemetry.Default().StartSpanCtx(cfg.Ctx, "adversary.solve", "")
	defer func() { recordSolve(sp, plan, err) }()
	in, err := newInstance(cfg)
	if err != nil {
		return nil, err
	}
	maxNodes := cfg.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 2_000_000
	}

	// Order targets by optimistic value, best first (improves both the
	// greedy incumbent and pruning), negative-value targets dropped.
	order := in.searchOrder()

	// Greedy incumbent.
	greedySet := in.greedy(order)
	bestVal, _ := in.value(greedySet)
	bestSet := append([]int(nil), greedySet...)
	if bestVal < 0 {
		bestVal, bestSet = 0, nil
	}

	bound := newTailBound(in, order)
	// pending[k] bounds the exclude branch of the frame at search position
	// k while that frame is inside its include branch (−Inf otherwise): the
	// subtrees a node-capped search leaves unexplored are exactly these
	// plus the node that hit the cap, which is what Plan.Gap is built from.
	pending := make([]float64, len(order)+1)
	gapBound := math.Inf(-1)

	nodes := 0
	exhausted := false
	var abortErr error
	every := cfg.checkEvery()
	var cur []int

	// Incremental node evaluation: a child set differs from its parent by
	// one appended target, so instead of re-summing captured-actor profits
	// over the whole set at every node (O(actors·depth)), keep per-depth
	// snapshots of the running per-actor sums and the running cost total
	// and extend them by one target on push (O(actors)). The snapshots
	// replay the exact left-to-right additions instance.value performs, so
	// node values — and therefore pruning decisions and the chosen plan —
	// are bit-identical to full re-evaluation (regression-tested against
	// in.value in the solver tests).
	nA := len(in.actors)
	depth := 0
	sums := [][]float64{make([]float64, nA)}
	negCost := []float64{0}
	push := func(i int) {
		prev := sums[depth]
		depth++
		if depth >= len(sums) {
			sums = append(sums, make([]float64, nA))
			negCost = append(negCost, 0)
		}
		next := sums[depth]
		row := prev
		for j := 0; j < nA; j++ {
			next[j] = row[j] + in.im[j][i]
		}
		negCost[depth] = negCost[depth-1] - in.cost[i]
	}
	pop := func() { depth-- }
	nodeValue := func() float64 {
		obj := negCost[depth]
		s := sums[depth]
		for j := 0; j < nA; j++ {
			if s[j] > 0 {
				obj += s[j]
			}
		}
		return obj
	}

	var dfs func(k int, spent float64)
	dfs = func(k int, spent float64) {
		if exhausted {
			return
		}
		nodes++
		if nodes > maxNodes {
			exhausted = true
			gapBound = nodeValue() + bound.tail(k, spent)
			for _, b := range pending[:k] {
				gapBound = math.Max(gapBound, b)
			}
			return
		}
		if nodes%every == 0 && cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				exhausted, abortErr = true, err
				return
			}
		}
		// Evaluate the current set exactly; it is always feasible.
		val := nodeValue()
		if val > bestVal+1e-12 {
			bestVal = val
			bestSet = append(bestSet[:0], cur...)
		}
		if k >= len(order) {
			return
		}
		// Bound: the node's exact value plus the best tail that still fits
		// the budget. The relative margin keeps rounding in an exactly
		// tight bound from pruning a node that would strictly improve.
		if val+bound.tail(k, spent) <= bestVal+1e-12-1e-9*math.Abs(bestVal) {
			return
		}
		i := order[k]
		// Branch 1: include target i (if affordable).
		if spent+in.cost[i] <= in.budget+1e-12 {
			pending[k] = val + bound.tail(k+1, spent)
			cur = append(cur, i)
			push(i)
			dfs(k+1, spent+in.cost[i])
			pop()
			cur = cur[:len(cur)-1]
		}
		// Branch 2: exclude target i.
		pending[k] = math.Inf(-1)
		dfs(k+1, spent)
	}
	dfs(0, 0)
	if abortErr != nil {
		return nil, abortErr
	}

	plan = in.plan(bestSet, nodes, !exhausted)
	if exhausted {
		plan.Gap = math.Max(gapBound-plan.Anticipated, 0)
	}
	return plan, nil
}

// tailBound bounds what the targets order[k:] can still add to a set.
// Value is subadditive — Value(S ∪ T) ≤ Value(S) + Σ_{t∈T} max(opt[t], 0),
// because max(0, a+b) ≤ max(0, a) + max(0, b) per actor — and no more than
// r = ⌊(budget − spent)/minCost⌋ further targets fit the budget. Since the
// search order is sorted best optimistic value first, the best r tail
// values are the first r, so the bound is one prefix-sum difference. With
// uniform costs it is exactly the top (budget − |S|) tail values; with
// mixed costs it stays valid, only looser.
type tailBound struct {
	prefix  []float64 // prefix[k] = Σ_{k' < k} max(opt[order[k']], 0)
	minCost float64   // smallest cost among the searched targets
	budget  float64
}

func newTailBound(in *instance, order []int) tailBound {
	b := tailBound{prefix: make([]float64, len(order)+1), minCost: math.Inf(1), budget: in.budget}
	for k, i := range order {
		b.prefix[k+1] = b.prefix[k] + math.Max(in.opt[i], 0)
		b.minCost = math.Min(b.minCost, in.cost[i])
	}
	return b
}

// tail is the bound at search position k with spend spent.
func (b tailBound) tail(k int, spent float64) float64 {
	r := len(b.prefix) - 1 - k
	if b.minCost > 0 {
		// Compared as floats first: an infinite budget must not reach int().
		if fit := math.Floor((b.budget - spent + 1e-12) / b.minCost); fit < float64(r) {
			r = max(int(fit), 0)
		}
	}
	return b.prefix[k+r] - b.prefix[k]
}

// greedy grows the target set by best exact marginal value.
func (in *instance) greedy(order []int) []int {
	var set []int
	spent := 0.0
	curVal := 0.0
	used := make([]bool, len(in.ids))
	for {
		bestGain := 1e-12
		bestIdx := -1
		for _, i := range order {
			if used[i] || spent+in.cost[i] > in.budget+1e-12 {
				continue
			}
			v, _ := in.value(append(set, i))
			if g := v - curVal; g > bestGain {
				bestGain = g
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			return set
		}
		set = append(set, bestIdx)
		used[bestIdx] = true
		spent += in.cost[bestIdx]
		curVal += bestGain
	}
}

// EvaluateOptions controls realized-profit evaluation.
type EvaluateOptions struct {
	// Defended marks assets whose attacks fail (the defender's
	// investment nullifies the perturbation); the SA still pays Catk.
	Defended map[string]bool
}

// Evaluate computes the profit a plan actually realizes against the ground
// truth impact matrix: the SA keeps her chosen positions (Actors) and target
// expenditures, but the impacts come from truth rather than from her model
// (Section III-C: "the actual impact comes from what the ground truth model
// experiences"). Defended targets contribute cost but no impact.
func Evaluate(p *Plan, truth *impact.Matrix, targets []Target, opts EvaluateOptions) float64 {
	total := 0.0
	for _, id := range p.Targets {
		var t Target // a target missing from targets costs nothing and never succeeds
		for _, c := range targets {
			if c.ID == id {
				t = c
			}
		}
		total -= t.Cost
		if opts.Defended[id] {
			continue
		}
		j := truth.Col(id)
		for _, a := range p.Actors {
			total += truth.At(truth.Row(a), j) * t.SuccessProb
		}
	}
	return total
}
