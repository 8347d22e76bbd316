// Solve memoization and compiled, warm-started re-solves for impact
// analyses.
//
// Cache keys canonicalize the perturbation set — duplicates collapse
// last-wins per (edge, field), order is normalized — and are salted with a
// fingerprint of everything else the result depends on: the graph bytes,
// the ownership assignment and the profit model. Two Analyses over
// identical scenarios therefore share entries, and any difference in
// scenario content changes the salt rather than silently aliasing.
//
// The memo stores absolute per-actor profits, not deltas, so hits replay
// the exact delta arithmetic of a fresh solve against the caller's
// baseline: cached results are bit-identical to uncached ones.
//
// A miss first asks Carries whether the baseline optimum stays optimal under
// the perturbation set. If it does, the edited graph is priced against the
// baseline's dispatch result, solved cold once per compiled analysis, and no
// LP is solved; the entry carries the baseline's basis and support.
// Otherwise the miss re-solves the analysis's compiled dispatch LP (see
// compiled): capacity and cost perturbations edit only its bound and
// objective vectors, and the solve re-enters the simplex from the baseline's
// optimal basis.
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
	"cpsguard/internal/solvecache"
)

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

// salt fingerprints everything a memoized result depends on besides the
// perturbation set. Empty when no cache is attached (callers use "" as the
// cache-off sentinel).
func (a *Analysis) salt() string {
	if a.Cache == nil {
		return ""
	}
	h := sha256.New()
	h.Write([]byte(a.Graph.Fingerprint()))
	assets := make([]string, 0, len(a.Ownership))
	for asset := range a.Ownership {
		assets = append(assets, asset)
	}
	sort.Strings(assets)
	for _, asset := range assets {
		h.Write([]byte(asset))
		h.Write([]byte{0})
		h.Write([]byte(a.Ownership[asset]))
		h.Write([]byte{1})
	}
	h.Write([]byte(a.model().Name()))
	return hex.EncodeToString(h.Sum(nil))
}

// outcome is one priced dispatch: its absolute per-actor profits, laid out
// by the analysis's actor index, its welfare, optimal basis and flow
// support.
type outcome struct {
	profits []float64
	welfare float64
	basis   *lp.Basis
	support []string
}

// baseline resolves the baseline outcome, memoized in the cache when one is
// attached (the baseline is by far the most repeated solve: every Of and
// every matrix column needs it), and the compiled analysis it is laid out
// by.
func (a *Analysis) baseline(salt string) (*compiled, outcome, error) {
	c, err := a.compile()
	if err != nil {
		return nil, outcome{}, err
	}
	key := salt + "|baseline"
	e, ok := a.Cache.Get(key)
	if !ok {
		p, r, err := a.Baseline()
		if err != nil {
			return nil, outcome{}, err
		}
		e = solvecache.Entry{Profits: p, Welfare: r.Welfare, Basis: r.Basis, Support: supportOf(a.Graph, r)}
		a.Cache.Put(key, e)
	}
	return c, outcome{c.ix.Slice(e.Profits), e.Welfare, e.Basis, e.Support}, nil
}

// compiled is an analysis's validated graph, its actor index, its dispatch
// LP and baseline dispatch, each built on first use (a run served entirely
// from the cache never builds them), and a pool of scratch clones of the
// graph. A perturbed solve edits a clone, dispatches it and hands it to the
// profit model, then restores it, so pricing an attack neither rebuilds the
// LP nor clones or re-validates the graph.
type compiled struct {
	graph *graph.Graph
	ix    *actors.Index
	disp  func() (*flow.Dispatcher, error)
	// base is the cold baseline dispatch. One solve serves every carried
	// perturbation, so a baseline served from a shared cache prices them
	// with the same bits as one solved in this process.
	base  func() (*flow.Result, error)
	views sync.Pool // *graph.Graph clones of graph, restored between uses
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
		c := &compiled{graph: g, ix: actors.NewIndex(g, a.Ownership),
			disp: sync.OnceValues(func() (*flow.Dispatcher, error) { return flow.Compile(g) })}
		c.base = sync.OnceValues(func() (*flow.Result, error) {
			d, err := c.disp()
			if err != nil {
				return nil, err
			}
			return d.SolveEdited(g, lp.Options{})
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

// dispatch solves g, an edit of the compiled graph by ps, warm from basis,
// unless Carries proves the baseline optimum optimal for it: then it
// returns the shared baseline result, which callers must not mutate.
func (c *compiled) dispatch(g *graph.Graph, ps []Perturbation, basis *lp.Basis) (*flow.Result, error) {
	r0, err := c.base()
	if err != nil {
		return nil, err
	}
	if Carries(c.graph, ps, r0.Flow) {
		mCarried.Inc()
		return r0, nil
	}
	d, err := c.disp()
	if err != nil {
		return nil, err
	}
	return d.SolveEdited(g, lp.Options{WarmStart: basis})
}

// share divides r, the dispatch of g (the compiled graph or an edit of it),
// among the analysis's actors.
func (a *Analysis) share(c *compiled, g *graph.Graph, r *flow.Result) ([]float64, error) {
	p := make([]float64, len(c.ix.Actors))
	return p, a.model().Share(c.ix, g, r, p)
}

// supportOf lists the edges carrying nonzero flow in r, in g.Edges index
// order — a deterministic dominance certificate for the N-k screen. The
// exact-zero test is intentional: nonbasic flow variables sit exactly at
// their zero lower bound, and the screen's soundness argument needs "zero
// flow", not "small flow".
func supportOf(g *graph.Graph, r *flow.Result) []string {
	support := make([]string, 0, len(g.Edges))
	for j, f := range r.Flow {
		if f != 0 {
			support = append(support, g.Edges[j].ID)
		}
	}
	return support
}

// ofCached prices one perturbation set against the baseline, consulting the
// memo first, then carrying the baseline optimum or warm-starting the
// dispatch from the baseline basis. The delta arithmetic is shared between
// hit and miss paths so a hit reproduces a fresh solve bit for bit.
func (a *Analysis) ofCached(c *compiled, salt string, base outcome, ps []Perturbation) (actors.Profits, float64, error) {
	o, err := a.ofCachedEntry(c, salt, base, ps, false)
	if err != nil {
		return nil, 0, err
	}
	deltas := actors.Profits{}
	deltaProfits(o.profits, base.profits, func(k int, d float64) { deltas[c.ix.Actors[k]] = d })
	return deltas, o.welfare - base.welfare, nil
}

// ofCachedEntry is ofCached in absolute form: it returns the outcome of one
// perturbation set, solving and memoizing on a miss. Only a memoized or
// support-requesting solve lists the flow support. Entries read from a
// cache populated before support recording carry a nil support; callers
// needing the certificate must treat nil as "none", not "empty".
func (a *Analysis) ofCachedEntry(c *compiled, salt string, base outcome, ps []Perturbation, support bool) (outcome, error) {
	var key string
	if a.Cache != nil {
		key = salt + "|" + CanonicalKey(ps...)
		if e, ok := a.Cache.Get(key); ok {
			return outcome{c.ix.Slice(e.Profits), e.Welfare, e.Basis, e.Support}, nil
		}
	}
	gp, err := c.edit(ps)
	if err != nil {
		return outcome{}, err
	}
	defer c.release(gp)
	r, err := c.dispatch(gp, ps, base.basis)
	if err != nil {
		return outcome{}, err
	}
	p, err := a.share(c, gp, r)
	if err != nil {
		return outcome{}, err
	}
	o := outcome{profits: p, welfare: r.Welfare, basis: r.Basis}
	if support || a.Cache != nil {
		o.support = supportOf(a.Graph, r)
	}
	if a.Cache != nil {
		a.Cache.Put(key, solvecache.Entry{Profits: c.ix.Profits(p), Welfare: o.welfare, Basis: o.basis, Support: o.support})
	}
	return o, nil
}

// deltaProfits calls put(k, p[k] − base[k]) for every actor slot k with a
// nonzero perturbed or baseline profit, so an actor that vanishes from the
// perturbed division loses its entire profit. Each delta is a single
// subtraction, so the order of the calls cannot affect bits.
func deltaProfits(p, base []float64, put func(k int, d float64)) {
	for k := range p {
		if p[k] != 0 || base[k] != 0 {
			put(k, p[k]-base[k])
		}
	}
}
