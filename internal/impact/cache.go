// Solve memoization and compiled, warm-started re-solves for impact
// analyses.
//
// Every priced perturbation set, the empty baseline included, yields one
// solvecache.Entry: absolute per-actor profits laid out by the analysis's
// actor index, welfare and edge flows. The entry is what the cache stores
// and what every caller reads, so no outcome is converted at the cache
// boundary.
//
// Cache keys canonicalize the perturbation set — duplicates collapse
// last-wins per (edge, field), order is normalized — and are salted with a
// fingerprint of everything else the result depends on: the graph bytes,
// the ownership assignment and the profit model. Two Analyses over
// identical scenarios therefore share entries, and any difference in
// scenario content, edge order included, changes the salt rather than
// silently aliasing.
//
// The memo stores absolute profits, not deltas, so hits replay the exact
// delta arithmetic of a fresh solve against the caller's baseline: cached
// results are bit-identical to uncached ones.
//
// A miss first asks Carries whether the baseline optimum stays optimal under
// the perturbation set. If it does, the edited graph is priced against the
// baseline's dispatch result, solved cold once per compiled analysis, and no
// LP is solved; the entry carries the baseline's flows. Otherwise the miss
// re-solves the analysis's compiled dispatch LP (see compiled): capacity and
// cost perturbations edit only its bound and objective vectors, and the
// solve re-enters the simplex from the baseline's optimal basis.
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

// salt fingerprints everything a memoized outcome depends on besides the
// perturbation set: the graph bytes, edge order included, the ownership
// assignment and the profit model. Graph and ownership also fix the actor
// index, so every reader of a key lays the entry's profits out the way its
// writer did. The compiled analysis computes it once, on first use.
func (a *Analysis) salt() string {
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

// baseline returns the baseline outcome, memoized in the cache when one is
// attached (the baseline is by far the most repeated lookup: every Of and
// every matrix needs it).
func (a *Analysis) baseline(c *compiled) (solvecache.Entry, error) {
	var key string
	if a.Cache != nil {
		key = c.salt() + "|baseline"
		if e, ok := a.Cache.Get(key); ok {
			return e, nil
		}
	}
	r, err := c.base()
	if err != nil {
		return solvecache.Entry{}, err
	}
	p, err := a.share(c, c.graph, r)
	if err != nil {
		return solvecache.Entry{}, err
	}
	e := solvecache.Entry{Profits: p, Welfare: r.Welfare, Flows: r.Flow}
	a.Cache.Put(key, e)
	return e, nil
}

// compiled is an analysis's validated graph, its actor index, its cache
// salt, its dispatch LP and baseline dispatch, each built on first use (a
// run served entirely from the cache never builds the LP), and a pool of
// scratch clones of the graph. A perturbed solve edits a clone, dispatches
// it and hands it to the profit model, then restores it, so pricing an
// attack neither rebuilds the LP nor clones or re-validates the graph.
type compiled struct {
	graph *graph.Graph
	ix    *actors.Index
	salt  func() string
	disp  func() (*flow.Dispatcher, error)
	// base is the cold baseline dispatch. Every perturbed dispatch is
	// carried at it or re-solved warm from its basis, so an outcome served
	// from a shared cache and one solved in this process have the same
	// bits.
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
		c := &compiled{graph: g, ix: actors.NewIndex(g, a.Ownership), salt: sync.OnceValue(a.salt),
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

// dispatch solves g, an edit of the compiled graph by ps, warm from the
// baseline basis, unless Carries proves the baseline optimum optimal for it:
// then it returns the shared baseline result, which callers must not
// mutate.
func (c *compiled) dispatch(g *graph.Graph, ps []Perturbation) (*flow.Result, error) {
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
	return d.SolveEdited(g, lp.Options{WarmStart: r0.Basis})
}

// share divides r, the dispatch of g (the compiled graph or an edit of it),
// among the analysis's actors.
func (a *Analysis) share(c *compiled, g *graph.Graph, r *flow.Result) ([]float64, error) {
	p := make([]float64, len(c.ix.Actors))
	return p, a.model().Share(c.ix, g, r, p)
}

// outcome returns the outcome of one perturbation set, read from the memo
// or priced and memoized: carried at the baseline optimum when Carries
// accepts the set, otherwise re-solved warm from the baseline basis.
// Callers take deltas against the baseline outcome with the same arithmetic
// whether the entry was read or priced, so a hit reproduces a fresh solve
// bit for bit.
func (a *Analysis) outcome(c *compiled, ps []Perturbation) (solvecache.Entry, error) {
	var key string
	if a.Cache != nil {
		key = c.salt() + "|" + CanonicalKey(ps...)
		if e, ok := a.Cache.Get(key); ok {
			return e, nil
		}
	}
	gp, err := c.edit(ps)
	if err != nil {
		return solvecache.Entry{}, err
	}
	defer c.release(gp)
	r, err := c.dispatch(gp, ps)
	if err != nil {
		return solvecache.Entry{}, err
	}
	p, err := a.share(c, gp, r)
	if err != nil {
		return solvecache.Entry{}, err
	}
	e := solvecache.Entry{Profits: p, Welfare: r.Welfare, Flows: r.Flow}
	a.Cache.Put(key, e)
	return e, nil
}

// delta returns slot k's profit delta p[k] − base[k] and whether it is
// present: whether the perturbed or the baseline profit is nonzero, so an
// actor that vanishes from the perturbed division loses its entire profit.
func delta(p, base []float64, k int) (float64, bool) {
	return p[k] - base[k], p[k] != 0 || base[k] != 0
}
