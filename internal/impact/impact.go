// Package impact implements Section II-D3: attacks are represented as
// perturbations of the flow-graph parameters (capacity, cost, loss), and
// their impact is the change they induce in each actor's profit,
// Impact = Utility′ − Utility.
//
// The central artifact is the impact matrix IM[a,t] — the profit delta for
// actor a when target (asset/edge) t is attacked — which drives both the
// strategic adversary (package adversary) and the defenders (package
// defense). Because profits are divided by a model that sums exactly to
// social welfare, Σ_a IM[a,t] equals the welfare change of the attack: the
// "gains are met with losses" zero-sum property behind the paper's Fig. 2.
package impact

import (
	"fmt"
	"slices"
	"sync"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/solvecache"
)

// Field names a perturbable edge parameter.
type Field int8

const (
	// Capacity perturbs c(u,v).
	Capacity Field = iota
	// Cost perturbs a(u,v).
	Cost
	// Loss perturbs l(u,v).
	Loss
)

// String implements fmt.Stringer.
func (f Field) String() string {
	switch f {
	case Capacity:
		return "capacity"
	case Cost:
		return "cost"
	case Loss:
		return "loss"
	default:
		return fmt.Sprintf("Field(%d)", int8(f))
	}
}

// Perturbation is one parameter override on one edge.
type Perturbation struct {
	EdgeID string
	Field  Field
	// Value is the new absolute value of the field.
	Value float64
}

// Outage returns the paper's experimental attack: reduce the target's
// capacity to zero ("crashing a PLC", Section III-A3).
func Outage(edgeID string) Perturbation {
	return Perturbation{EdgeID: edgeID, Field: Capacity, Value: 0}
}

// Apply returns a clone of g with the perturbations applied. Unknown edge
// IDs return an error (attacking a non-existent asset is a modeling bug).
func Apply(g *graph.Graph, ps ...Perturbation) (*graph.Graph, error) {
	c := g.Clone()
	if err := set(c, ps); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("impact: perturbed graph invalid: %w", err)
	}
	return c, nil
}

// set writes each perturbation's value into its edge of g, in order.
func set(g *graph.Graph, ps []Perturbation) error {
	for _, p := range ps {
		e := g.Edge(p.EdgeID)
		if e == nil {
			return fmt.Errorf("impact: unknown edge %q", p.EdgeID)
		}
		switch p.Field {
		case Capacity:
			e.Capacity = p.Value
		case Cost:
			e.Cost = p.Value
		case Loss:
			e.Loss = p.Value
		default:
			return fmt.Errorf("impact: unknown field %v", p.Field)
		}
	}
	return nil
}

// Carries reports whether an optimal dispatch of g that puts flow[j] on edge
// g.Edges[j] stays optimal once ps is applied, so the edited dispatch needs
// no solve. It holds when every perturbation is a Capacity edit of an edge j
// with flow[j] ≤ the new capacity and either flow[j] < the old capacity or
// the two capacities are equal. Only the upper bound of one variable moves
// per edit: the flows stay feasible, and since each edited flow sits strictly
// below its old capacity or that capacity is unchanged, its capacity dual is
// zero or unchanged, so the duals stay feasible and complementary too. An
// edge held at its old capacity may carry a rent, so raising it is never
// carried; nor is any cost or loss edit. A caller that knows only which
// edges carry flow may pass +Inf for those: no finite capacity admits it.
func Carries(g *graph.Graph, ps []Perturbation, flow []float64) bool {
	for _, p := range ps {
		j := g.EdgeIndex(p.EdgeID)
		if p.Field != Capacity || j < 0 {
			return false
		}
		f, old := flow[j], g.Edges[j].Capacity
		if !(f <= p.Value && (f < old || p.Value == old)) {
			return false
		}
	}
	return true
}

// Analysis bundles the pieces needed to measure impacts on one scenario.
//
// The dispatch LP of Graph is compiled once, on first use, and its baseline
// is solved cold once. A perturbed dispatch that Carries proves optimal at
// the baseline optimum is priced against the baseline result without a
// solve; every other one re-solves the compiled LP from the baseline's
// optimal basis. Graph, Ownership and Model must therefore not be mutated
// after the first call (the cache salt that fingerprints them is computed
// once, too), and Model must not retain the graph it is handed after Share
// returns. An Analysis is safe for concurrent use and must not be
// copied.
type Analysis struct {
	// Graph is the ground-truth (or believed) model.
	Graph *graph.Graph
	// Ownership maps assets to actors.
	Ownership actors.Ownership
	// Model divides welfare among actors (default LMPDivision).
	Model actors.ProfitModel
	// Parallel configures fan-out across targets (default: all cores).
	Parallel parallel.Options
	// Cache, when non-nil, memoizes perturbed solves (and the baseline) so
	// repeated evaluations of the same attack set — across matrix builds,
	// adversary searches, and experiment trials on the same scenario —
	// skip the dispatch entirely. The cache is a pure memo: results are
	// bit-identical with and without it. See cache.go for the key scheme.
	Cache *solvecache.Cache
	// WarmStart is ignored: every perturbed dispatch that is not carried
	// re-enters the simplex from the baseline's optimal basis.
	//
	// Deprecated: ignored.
	WarmStart bool
	// LPMethod is ignored: the solver picks its kernel from the size of
	// the dispatch LP.
	//
	// Deprecated: ignored.
	LPMethod lp.Method

	mu   sync.Mutex
	comp *compiled // the compiled state of Graph, built on first use
}

func (a *Analysis) model() actors.ProfitModel {
	if a.Model != nil {
		return a.Model
	}
	return actors.LMPDivision{}
}

// Baseline dispatches the unperturbed system and returns its per-actor
// profits and welfare. The dispatch is solved once per compiled analysis
// and shared: callers must not mutate the returned result.
func (a *Analysis) Baseline() (actors.Profits, *flow.Result, error) {
	c, err := a.compile()
	if err != nil {
		return nil, nil, err
	}
	r, err := c.base()
	if err != nil {
		return nil, nil, err
	}
	p, err := a.share(c, a.Graph, r)
	if err != nil {
		return nil, nil, err
	}
	return c.ix.Profits(p), r, nil
}

// Of measures the impact of a single attack (set of perturbations): the
// per-actor profit deltas and the system welfare delta.
func (a *Analysis) Of(ps ...Perturbation) (actors.Profits, float64, error) {
	c, err := a.compile()
	if err != nil {
		return nil, 0, err
	}
	base, err := a.baseline(c)
	if err != nil {
		return nil, 0, err
	}
	o, err := a.outcome(c, ps)
	if err != nil {
		return nil, 0, err
	}
	deltas := actors.Profits{}
	for k := range o.Profits {
		if d, ok := delta(o.Profits, base.Profits, k); ok {
			deltas[c.ix.Actors[k]] = d
		}
	}
	return deltas, o.Welfare - base.Welfare, nil
}

// Outcome returns the dispatch outcome of the perturbation set ps: the
// absolute per-actor profits laid out by the analysis's actor index, the
// welfare and the edge flows. The empty set's outcome is the baseline's, so
// Outcome(ps...).Welfare − Outcome().Welfare is the welfare delta Of
// reports, bit for bit. With a cache attached the outcome is read from it
// or memoized in it. The entry is shared: callers must not mutate it.
func (a *Analysis) Outcome(ps ...Perturbation) (solvecache.Entry, error) {
	c, err := a.compile()
	if err != nil {
		return solvecache.Entry{}, err
	}
	if len(ps) == 0 {
		return a.baseline(c)
	}
	return a.outcome(c, ps)
}

// Matrix is the impact matrix IM[a][t] plus bookkeeping. Its values lie
// actor-major over the sorted Actors and Targets: cell (i, j) is actor
// Actors[i]'s profit delta when target Targets[j] is attacked. A cell is
// present when the actor's baseline or attacked profit is nonzero; an absent
// cell reads 0 and is never perturbed. A Matrix is read-only once built, so
// its noisy views share everything but the values.
type Matrix struct {
	// Targets lists the attacked asset IDs in sorted order, without repeats.
	Targets []string
	// Actors lists the actor IDs with a row, sorted: every owner, plus any
	// other actor (the market) with a present cell.
	Actors []string
	// WelfareDelta[j] is the system welfare change when Targets[j] is
	// attacked (≤ 0 up to LP tolerance, since the baseline is the welfare
	// optimum).
	WelfareDelta []float64
	// BaselineWelfare is the unattacked system welfare.
	BaselineWelfare float64

	vals    []float64      // vals[i·len(Targets)+j] is cell (i, j)
	present []bool         // indexed like vals
	col     map[string]int // target → column
}

// NewMatrix returns the matrix over the sorted actors and targets whose cell
// (i, j), for actor i and target j of the sorted lists, holds v and is
// present when cell(i, j) returns (v, true). cell is called in row-major
// order. WelfareDelta starts at zero. A repeated actor or target is an error.
func NewMatrix(actorIDs, targets []string, cell func(i, j int) (float64, bool)) (*Matrix, error) {
	as, err := sortedIDs(actorIDs)
	if err != nil {
		return nil, err
	}
	ts, err := sortedIDs(targets)
	if err != nil {
		return nil, err
	}
	n := len(as) * len(ts)
	m := &Matrix{Targets: ts, Actors: as, WelfareDelta: make([]float64, len(ts)),
		vals: make([]float64, n), present: make([]bool, n), col: make(map[string]int, len(ts))}
	for j, t := range ts {
		m.col[t] = j
	}
	for k := range m.vals {
		if v, ok := cell(k/len(ts), k%len(ts)); ok {
			m.vals[k], m.present[k] = v, true
		}
	}
	return m, nil
}

// sortedIDs returns a sorted copy of ids, or an error on a repeated ID.
func sortedIDs(ids []string) ([]string, error) {
	s := slices.Clone(ids)
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i] == s[i-1] {
			return nil, fmt.Errorf("impact: repeated ID %q", s[i])
		}
	}
	return s, nil
}

// Col returns target t's column, or -1 when t is not a target.
func (m *Matrix) Col(t string) int {
	if j, ok := m.col[t]; ok {
		return j
	}
	return -1
}

// Row returns actor a's row, or -1 when a has none.
func (m *Matrix) Row(a string) int {
	if i, ok := slices.BinarySearch(m.Actors, a); ok {
		return i
	}
	return -1
}

// At returns cell (i, j); an absent cell, or a negative i or j, reads 0.
func (m *Matrix) At(i, j int) float64 {
	if i < 0 || j < 0 {
		return 0
	}
	return m.vals[i*len(m.Targets)+j]
}

// Present reports whether cell (i, j) is present.
func (m *Matrix) Present(i, j int) bool { return m.present[i*len(m.Targets)+j] }

// Get returns IM[actor][target] (0 when absent).
func (m *Matrix) Get(actor, target string) float64 { return m.At(m.Row(actor), m.Col(target)) }

// Perturbed returns a noisy view of m, an agent's estimate of it (the I″ of
// Section II-F2, or Section II-D4's knowledge noise applied to the matrix):
// each present cell v becomes v·(1 + sigma·z) for a standard normal z drawn
// from rs, in row-major order, so a stream always yields the same view.
// Absent cells stay 0. The view shares all but its values with m; sigma = 0
// returns m itself.
func (m *Matrix) Perturbed(sigma float64, rs *rng.Stream) *Matrix {
	if sigma == 0 {
		return m
	}
	v := *m
	v.vals = make([]float64, len(m.vals))
	for k, x := range m.vals {
		if m.present[k] {
			x *= 1 + sigma*rs.NormFloat64()
		}
		v.vals[k] = x
	}
	return &v
}

// GainLoss sums the positive entries and the negative entries of the whole
// matrix — the quantities plotted in the paper's Figure 2. The sums run in
// row-major order over the sorted layout: float addition is not
// associative, so any other order could move the last ulp between runs and
// break the bit-identical determinism the experiment harness (and
// crash-safe resume) guarantees.
func (m *Matrix) GainLoss() (gain, loss float64) {
	for _, v := range m.vals {
		if v > 0 {
			gain += v
		} else {
			loss += v
		}
	}
	return gain, loss
}

// ComputeMatrix builds the impact matrix for single-asset outage attacks on
// every listed target (nil targets = every edge). Targets are processed in
// parallel; each target costs one dispatch + one profit division.
func (a *Analysis) ComputeMatrix(targets []string) (*Matrix, error) {
	return a.ComputeMatrixOf(targets, func(id string) []Perturbation {
		return []Perturbation{Outage(id)}
	})
}

// ComputeMatrixOf builds an impact matrix for an arbitrary attack vector:
// mk maps each target asset to the perturbations its attack applies. This
// supports the paper's "more subtle" attacks (Section II-D3) — e.g. a
// stealthy loss increase or a cost manipulation — alongside the outage.
// A repeated target is an error.
func (a *Analysis) ComputeMatrixOf(targets []string, mk func(id string) []Perturbation) (*Matrix, error) {
	if targets == nil {
		targets = a.Graph.AssetIDs()
	}
	targets, err := sortedIDs(targets)
	if err != nil {
		return nil, err
	}
	c, err := a.compile()
	if err != nil {
		return nil, err
	}
	base, err := a.baseline(c)
	if err != nil {
		return nil, err
	}
	cols, err := parallel.Map(len(targets), a.Parallel, func(i int) (solvecache.Entry, error) {
		o, err := a.outcome(c, mk(targets[i]))
		if err != nil {
			return solvecache.Entry{}, fmt.Errorf("target %s: %w", targets[i], err)
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}
	// Every owner has a row, even if all its deltas are 0; another actor
	// slot (the market) has one when some cell of it is present.
	rows := a.Ownership.Actors()
	for k, actor := range c.ix.Actors {
		for _, o := range cols {
			if _, ok := delta(o.Profits, base.Profits, k); ok && !slices.Contains(rows, actor) {
				rows = append(rows, actor)
			}
		}
	}
	slices.Sort(rows)
	m, err := NewMatrix(rows, targets, func(i, j int) (float64, bool) {
		if k := slices.Index(c.ix.Actors, rows[i]); k >= 0 {
			return delta(cols[j].Profits, base.Profits, k)
		}
		return 0, false
	})
	if err != nil {
		return nil, err
	}
	for j, o := range cols {
		m.WelfareDelta[j] = o.Welfare - base.Welfare
	}
	m.BaselineWelfare = base.Welfare
	return m, nil
}
