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
	"sort"
	"sync"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/parallel"
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
	deltaProfits(o.Profits, base.Profits, func(k int, d float64) { deltas[c.ix.Actors[k]] = d })
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

// Matrix is the impact matrix IM[a][t] plus bookkeeping.
type Matrix struct {
	// IM maps actor → target → profit delta.
	IM map[string]map[string]float64
	// WelfareDelta maps target → system welfare change (≤ 0 up to LP
	// tolerance, since the baseline is the welfare optimum).
	WelfareDelta map[string]float64
	// Targets lists the attacked asset IDs in sorted order.
	Targets []string
	// Actors lists all actor IDs appearing in the ownership, sorted.
	Actors []string
	// BaselineWelfare is the unattacked system welfare.
	BaselineWelfare float64
}

// Get returns IM[actor][target] (0 when absent).
func (m *Matrix) Get(actor, target string) float64 {
	if row, ok := m.IM[actor]; ok {
		return row[target]
	}
	return 0
}

// GainLoss sums the positive entries and the negative entries of the whole
// matrix — the quantities plotted in the paper's Figure 2. Iteration is in
// sorted (actor, target) order, not map order: float addition is not
// associative, so a map-order sum varies in the last ulp between runs,
// which would break the bit-identical determinism the experiment harness
// (and crash-safe resume) guarantees.
func (m *Matrix) GainLoss() (gain, loss float64) {
	for _, a := range m.Actors {
		row := m.IM[a]
		for _, t := range m.Targets {
			v := row[t]
			if v > 0 {
				gain += v
			} else {
				loss += v
			}
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
func (a *Analysis) ComputeMatrixOf(targets []string, mk func(id string) []Perturbation) (*Matrix, error) {
	if targets == nil {
		targets = a.Graph.AssetIDs()
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
	m := &Matrix{
		IM:              map[string]map[string]float64{},
		WelfareDelta:    map[string]float64{},
		Targets:         append([]string(nil), targets...),
		Actors:          a.Ownership.Actors(),
		BaselineWelfare: base.Welfare,
	}
	// Ensure every owning actor has a row even if all its deltas are 0.
	for _, actor := range m.Actors {
		m.IM[actor] = map[string]float64{}
	}
	for i, t := range targets {
		m.WelfareDelta[t] = cols[i].Welfare - base.Welfare
		deltaProfits(cols[i].Profits, base.Profits, func(k int, d float64) {
			actor := c.ix.Actors[k]
			row, ok := m.IM[actor]
			if !ok {
				row = map[string]float64{}
				m.IM[actor] = row
				m.Actors = append(m.Actors, actor)
			}
			row[t] = d
		})
	}
	sort.Strings(m.Actors)
	return m, nil
}
