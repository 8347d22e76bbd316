// Dispatch memoization and compiled, warm-started re-solves for impact
// analyses.
//
// The memo holds dispatches, not profits. Every dispatched perturbation set,
// the empty baseline included, is one shared, read-only *flow.Result, and
// every reader divides it among its own actors with its own profit model
// (share, O(E+V) for LMPDivision). Ownership never enters the dispatch LP,
// so analyses of one grid under different ownerships — every actor count of
// a figure, every ownership draw of a trial — share every entry.
//
// Cache keys canonicalize the perturbation set — duplicates collapse
// last-wins per (edge, field), order is normalized — and are salted with the
// graph's fingerprint, the one input besides the set that the dispatch
// depends on. Two Analyses over byte-equal graphs therefore share entries,
// and any difference in graph content, edge order included, changes the salt
// rather than silently aliasing.
//
// A hit is bit-identical to a fresh solve: the dispatch is deterministic in
// the graph bytes and the set, and the reader divides it with the same
// arithmetic a fresh solve's division uses. IterativeDivision re-runs its
// capacity probes on every division, hit or miss.
//
// A miss first asks Carries whether the baseline optimum stays optimal under
// the perturbation set. If it does, the set's dispatch is the baseline's,
// solved cold once per compiled analysis or adopted from the memo, and no
// LP is solved. Otherwise the miss re-solves the analysis's compiled
// dispatch LP (see compiled): capacity and cost perturbations edit only its
// bound and objective vectors, and the solve re-enters the simplex from the
// baseline's optimal basis.
package impact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"

	"cpsguard/internal/actors"
	"cpsguard/internal/flow"
	"cpsguard/internal/graph"
	"cpsguard/internal/lp"
	"cpsguard/internal/telemetry"
)

// mCarried counts the perturbed dispatches priced against the baseline
// optimum without an LP solve: the solves Carries saved.
var mCarried = telemetry.NewCounter("impact.carried")

// CanonicalKey returns a canonical hex digest of a perturbation set: the
// same attack always yields the same key regardless of perturbation order
// or redundant entries. Matching Apply's semantics, a later perturbation of
// the same (edge, field) overrides an earlier one before normalization.
func CanonicalKey(ps ...Perturbation) string {
	type slot struct {
		edge  string
		field Field
	}
	last := make(map[slot]float64, len(ps))
	for _, p := range ps {
		last[slot{p.EdgeID, p.Field}] = p.Value
	}
	keys := make([]slot, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].edge != keys[j].edge {
			return keys[i].edge < keys[j].edge
		}
		return keys[i].field < keys[j].field
	})
	h := sha256.New()
	var buf [8]byte
	for _, k := range keys {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(k.edge)))
		h.Write(buf[:])
		h.Write([]byte(k.edge))
		h.Write([]byte{byte(k.field)})
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(last[k]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compiled is an analysis's validated graph, its actor index, its cache
// salt, its dispatch LP, its baseline dispatch and the baseline's division,
// each built on first use (a run served entirely from the cache never builds
// the LP), and a pool of scratch clones of the graph. A perturbed dispatch
// edits a clone, dispatches it and hands it to the profit model, then
// restores it, so pricing an attack neither rebuilds the LP nor clones or
// re-validates the graph.
type compiled struct {
	graph *graph.Graph
	ix    *actors.Index
	// salt is the graph's fingerprint, the one input besides the
	// perturbation set that a dispatch depends on.
	salt func() string
	disp func() (*flow.Dispatcher, error)
	// base is the baseline dispatch: the memo's, when a cache attached to
	// the analysis holds it, else solved cold. Every perturbed dispatch is
	// carried at it or re-solved warm from its basis. A basis captured on
	// another analysis's LP warm-starts this one too; it is factored
	// afresh on this LP's rows, which moves no bit.
	base func() (*flow.Result, error)
	// baseShare is the baseline's division among the analysis's actors.
	baseShare func() ([]float64, error)
	views     sync.Pool // *graph.Graph clones of graph, restored between uses
}

// compile returns the analysis's compiled state, building it on first use
// (and again if Graph has been replaced since).
func (a *Analysis) compile() (*compiled, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.comp == nil || a.comp.graph != a.Graph {
		g := a.Graph
		if err := g.Validate(); err != nil {
			return nil, err
		}
		c := &compiled{graph: g, ix: actors.NewIndex(g, a.Ownership), salt: sync.OnceValue(g.Fingerprint),
			disp: sync.OnceValues(func() (*flow.Dispatcher, error) { return flow.Compile(g) })}
		c.base = sync.OnceValues(func() (*flow.Result, error) {
			cold := func() (*flow.Result, error) {
				d, err := c.disp()
				if err != nil {
					return nil, err
				}
				return d.SolveEdited(g, lp.Options{})
			}
			if a.Cache == nil {
				return cold()
			}
			return a.Cache.Do(c.salt()+"|baseline", cold)
		})
		c.baseShare = sync.OnceValues(func() ([]float64, error) {
			r, err := c.base()
			if err != nil {
				return nil, err
			}
			return a.share(c, g, r)
		})
		a.comp = c
	}
	return a.comp, nil
}

// edit returns a scratch clone of the compiled graph with ps applied, or the
// error Apply would return for ps. Hand the clone back with release.
func (c *compiled) edit(ps []Perturbation) (*graph.Graph, error) {
	v, ok := c.views.Get().(*graph.Graph)
	if !ok {
		v = c.graph.Clone()
	}
	if err := set(v, ps); err != nil {
		c.release(v)
		return nil, err
	}
	// The compiled graph is valid, so only edited parameters can fail, and
	// the first failing edge in edge order is the one Validate reports.
	for i := range v.Edges {
		if err := v.Edges[i].ValidateParams(); err != nil {
			c.release(v)
			return nil, fmt.Errorf("impact: perturbed graph invalid: %w", err)
		}
	}
	return v, nil
}

// release restores a clone from edit to the compiled graph and pools it.
func (c *compiled) release(v *graph.Graph) {
	copy(v.Edges, c.graph.Edges)
	c.views.Put(v)
}

// dispatch edits the compiled graph by ps and returns the edit g and its
// dispatch r: the memoized one, else the baseline's when Carries proves the
// baseline optimum optimal for ps, else a warm re-solve from the baseline
// basis. With memoize, a cache attached to the analysis memoizes either;
// without, the cache is only read. r is shared: callers must not mutate it.
// Hand g back with c.release.
func (a *Analysis) dispatch(c *compiled, ps []Perturbation, memoize bool) (*graph.Graph, *flow.Result, error) {
	r0, err := c.base()
	if err != nil {
		return nil, nil, err
	}
	g, err := c.edit(ps)
	if err != nil {
		return nil, nil, err
	}
	var r *flow.Result
	switch {
	case a.Cache == nil:
		r, err = c.solve(g, ps, r0)
	case memoize:
		r, err = a.Cache.Do(c.salt()+"|"+CanonicalKey(ps...), func() (*flow.Result, error) { return c.solve(g, ps, r0) })
	default:
		var ok bool
		if r, ok = a.Cache.Get(c.salt() + "|" + CanonicalKey(ps...)); !ok {
			r, err = c.solve(g, ps, r0)
		}
	}
	if err != nil {
		c.release(g)
		return nil, nil, err
	}
	return g, r, nil
}

// solve dispatches g, the compiled graph edited by ps: it returns r0, the
// baseline dispatch, when Carries accepts ps, and otherwise solves g warm
// from r0's basis.
func (c *compiled) solve(g *graph.Graph, ps []Perturbation, r0 *flow.Result) (*flow.Result, error) {
	if Carries(c.graph, ps, r0.Flow) {
		mCarried.Inc()
		return r0, nil
	}
	d, err := c.disp()
	if err != nil {
		return nil, err
	}
	return d.SolveEdited(g, lp.Options{WarmStart: r0.Basis})
}

// share divides r, the dispatch of g (the compiled graph or an edit of it),
// among the analysis's actors.
func (a *Analysis) share(c *compiled, g *graph.Graph, r *flow.Result) ([]float64, error) {
	p := make([]float64, len(c.ix.Actors))
	return p, a.model().Share(c.ix, g, r, p)
}

// priced returns the dispatch of the perturbation set ps and its division
// among the analysis's actors.
func (a *Analysis) priced(c *compiled, ps []Perturbation) ([]float64, *flow.Result, error) {
	g, r, err := a.dispatch(c, ps, true)
	if err != nil {
		return nil, nil, err
	}
	defer c.release(g)
	p, err := a.share(c, g, r)
	if err != nil {
		return nil, nil, err
	}
	return p, r, nil
}

// delta returns slot k's profit delta p[k] − base[k] and whether it is
// present: whether the perturbed or the baseline profit is nonzero, so an
// actor that vanishes from the perturbed division loses its entire profit.
func delta(p, base []float64, k int) (float64, bool) {
	return p[k] - base[k], p[k] != 0 || base[k] != 0
}
