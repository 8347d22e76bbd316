// Package screen implements N-k contingency screening (ROADMAP item 5,
// after Tönges et al., arXiv:2506.09766): it enumerates outage combinations
// up to depth k over a candidate target list, prices each through the
// impact/solvecache/warm-start evaluation stack, and emits a deterministic
// vulnerability ranking — the worst contingency found, a bounded top list,
// and per-target scores — plus dominance certificates marking the targets
// whose outage provably cannot change the dispatch optimum.
//
// # Dominance rule
//
// Every target is the outage of its own edge (capacity to zero), and the
// targets are distinct edges. The screen's pruning rests on one LP fact.
// Let S be an outage set whose optimal dispatch is known, and let t be a
// further target whose edge carries zero flow in that dispatch. Then S's
// dispatch remains feasible for S∪{t} (zero flow satisfies a zero
// capacity), and since cutting a capacity only shrinks the feasible region,
// a point optimal over the larger region and feasible in the smaller one is
// optimal there too. S∪{t} therefore inherits S's welfare and flows exactly
// — no solve needed — and the certificate chains transitively through
// pruned nodes. The test is impact.Carries, the rule impact matrices use to
// skip the solves of the same outages, read off the flows of S's outcome.
//
// # Determinism
//
// Enumeration is lexicographic over target indices and the worst-set
// incumbent only moves on strictly more damage beyond a fixed tolerance,
// so the ranking is a pure function of the inputs. Pruned sets inherit
// their ancestor's exact floats and, being equal in damage to that
// ancestor, can never displace the incumbent — which is why the reported
// Worst is bit-identical between pruned and unpruned runs (the differential
// battery in screen_test.go enforces this).
package screen

import (
	"errors"
	"fmt"
	"sort"

	"cpsguard/internal/impact"
	"cpsguard/internal/parallel"
)

// damageTol is the strict-improvement margin for the worst-set incumbent.
// It sits three orders of magnitude above the solver agreement tolerance
// (1e-9), so a re-solved dominated set — mathematically equal to its
// ancestor, numerically within solver noise — can never displace it.
const damageTol = 1e-6

// Config states one screening run.
type Config struct {
	// Analysis is the evaluation stack: graph and cache. The screen reads
	// only welfare and flows, so it divides no dispatch among the
	// analysis's actors. Its Parallel options drive the per-level fan-out.
	Analysis *impact.Analysis
	// Targets lists the candidate target IDs (default: every asset edge).
	// Each is the edge its outage cuts, so no ID may repeat.
	Targets []string
	// K is the maximum outage depth (minimum 1).
	K int
	// NoPrune disables dominance pruning: every enumerated set is
	// evaluated. Results are equivalent; this is the oracle mode the
	// differential tests compare against.
	NoPrune bool
	// Top bounds the retained worst-contingency list (default 10).
	Top int
	// MaxSets caps the total number of enumerated sets (evaluated +
	// pruned); 0 means unlimited. Truncation is lexicographic and
	// deterministic, and is reported via Ranking.Truncated.
	MaxSets int
}

// TargetScore is one target's depth-1 vulnerability score.
type TargetScore struct {
	ID string `json:"id"`
	// Delta is the welfare change of attacking this target alone (≤ 0 up
	// to LP tolerance).
	Delta float64 `json:"welfare_delta"`
	// CertifiedZero reports that the dominance rule proves this target's
	// outage cannot change the baseline optimum: its edge carries no
	// baseline flow. Certification is independent of NoPrune, so screened
	// and oracle runs agree on it; under pruning it equals the depth-1
	// set's Inherited.
	CertifiedZero bool `json:"certified_zero"`
}

// Contingency is one scored outage set.
type Contingency struct {
	// Targets holds the set's target IDs in candidate-index order.
	Targets []string `json:"targets"`
	// Delta is the set's welfare change against the baseline.
	Delta float64 `json:"welfare_delta"`
	// Inherited reports the value came from a dominating ancestor via the
	// pruning rule rather than a solve.
	Inherited bool `json:"inherited,omitempty"`
}

// Ranking is the screen's deterministic output.
type Ranking struct {
	K               int     `json:"k"`
	BaselineWelfare float64 `json:"baseline_welfare"`
	// Worst is the most damaging contingency found (always a genuinely
	// solved set; the empty set when nothing beats the baseline by more
	// than the tolerance).
	Worst Contingency `json:"worst"`
	// Top lists the worst contingencies, most damaging first (ties broken
	// lexicographically), bounded by Config.Top.
	Top []Contingency `json:"top"`
	// Targets holds every candidate's depth-1 score, most damaging first.
	Targets []TargetScore `json:"targets"`
	// Evaluated and Pruned count solved vs dominance-skipped sets.
	Evaluated int64 `json:"evaluated"`
	Pruned    int64 `json:"pruned"`
	// Truncated reports the MaxSets cap cut enumeration short.
	Truncated bool `json:"truncated,omitempty"`
}

// node is one enumerated outage set, stored as (parent, appended target)
// against the previous level.
type node struct {
	last    int // candidate index appended at this level (-1 for the root)
	parent  int // index into the previous level (-1 for the root)
	delta   float64
	flows   []float64 // edge flows of the set's optimal dispatch
	inherit bool
}

// Run screens the configured scenario and returns its vulnerability
// ranking. Degenerate inputs (unknown or repeated target edges, empty target
// lists, broken grids) return errors, never panic.
func Run(cfg Config) (*Ranking, error) {
	mRuns.Inc()
	if cfg.Analysis == nil {
		return nil, errors.New("screen: nil analysis")
	}
	k := cfg.K
	if k < 1 {
		k = 1
	}
	topN := cfg.Top
	if topN <= 0 {
		topN = 10
	}
	targets := cfg.Targets
	if targets == nil {
		targets = cfg.Analysis.Graph.AssetIDs()
	}
	if len(targets) == 0 {
		return nil, errors.New("screen: no candidate targets")
	}

	// Each target is the outage of its own edge: reject unknown edges up
	// front, and repeated ones, since a set must cut each edge once.
	g := cfg.Analysis.Graph
	outages := make([]impact.Perturbation, len(targets))
	seen := make(map[string]bool, len(targets))
	for i, id := range targets {
		if g.Edge(id) == nil {
			return nil, fmt.Errorf("screen: unknown target edge %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("screen: duplicate target %q", id)
		}
		seen[id] = true
		outages[i] = impact.Outage(id)
	}

	base, err := cfg.Analysis.Outcome()
	if err != nil {
		return nil, err
	}
	r := &Ranking{
		K:               k,
		BaselineWelfare: base.Welfare,
		Worst:           Contingency{Targets: []string{}},
	}

	worstDamage := 0.0
	var top topAcc

	prev := []node{{last: -1, parent: -1, delta: 0, flows: base.Flow}}
	levels := [][]node{prev}
	for level := 1; level <= k && len(prev) > 0; level++ {
		var children []node
		for pi := range prev {
			for j := prev[pi].last + 1; j < len(targets); j++ {
				children = append(children, node{last: j, parent: pi})
			}
		}
		if cfg.MaxSets > 0 {
			budget := int64(cfg.MaxSets) - r.Evaluated - r.Pruned
			if budget < int64(len(children)) {
				if budget < 0 {
					budget = 0
				}
				children = children[:budget]
				r.Truncated = true
			}
		}
		if len(children) == 0 {
			break
		}

		// A child's outage is carried when impact.Carries accepts it at
		// the parent set's optimum: its edge carries no flow there. A
		// carried child inherits its parent's outcome unless pruning is
		// off; at depth 1 the same decision certifies the target.
		carried := make([]bool, len(children))
		for ci, c := range children {
			carried[ci] = impact.Carries(g, outages[c.last:c.last+1], prev[c.parent].flows)
		}

		solved, err := parallel.Map(len(children), cfg.Analysis.Parallel, func(ci int) (node, error) {
			c := children[ci]
			p := prev[c.parent]
			if carried[ci] && !cfg.NoPrune {
				return node{last: c.last, parent: c.parent, delta: p.delta, flows: p.flows, inherit: true}, nil
			}
			o, err := cfg.Analysis.Outcome(setPerturbations(levels, level, c, outages)...)
			if err != nil {
				return node{}, fmt.Errorf("screen: set %v: %w", setIDs(levels, level, c, targets), err)
			}
			return node{last: c.last, parent: c.parent, delta: o.Welfare - base.Welfare, flows: o.Flow}, nil
		})
		if err != nil {
			return nil, err
		}

		// Sequential, lexicographic accounting: counters, the worst-set
		// incumbent, the bounded top list, and depth-1 scores.
		for ci := range solved {
			n := solved[ci]
			if n.inherit {
				r.Pruned++
				mPruned.Inc()
			} else {
				r.Evaluated++
				mEvaluated.Inc()
			}
			ids := setIDs(levels, level, n, targets)
			damage := -n.delta
			if !n.inherit && damage > worstDamage+damageTol {
				worstDamage = damage
				r.Worst = Contingency{Targets: ids, Delta: n.delta}
			}
			top.add(Contingency{Targets: ids, Delta: n.delta, Inherited: n.inherit}, topN)
			if level == 1 {
				r.Targets = append(r.Targets, TargetScore{
					ID: targets[n.last], Delta: n.delta, CertifiedZero: carried[ci],
				})
			}
		}
		levels = append(levels, solved)
		prev = solved
	}

	r.Top = top.list
	sort.SliceStable(r.Targets, func(a, b int) bool {
		da, db := -r.Targets[a].Delta, -r.Targets[b].Delta
		if da != db {
			return da > db
		}
		return r.Targets[a].ID < r.Targets[b].ID
	})
	return r, nil
}

// setIDs reconstructs a node's target IDs (candidate-index order) by
// walking the parent chain through the level table.
func setIDs(levels [][]node, level int, n node, targets []string) []string {
	idx := setIndices(levels, level, n)
	out := make([]string, len(idx))
	for i, t := range idx {
		out[i] = targets[t]
	}
	return out
}

func setIndices(levels [][]node, level int, n node) []int {
	idx := make([]int, level)
	cur := n
	for l := level; l >= 1; l-- {
		idx[l-1] = cur.last
		cur = levels[l-1][cur.parent]
	}
	return idx
}

// setPerturbations lists the outages of a node's set, in candidate-index
// order.
func setPerturbations(levels [][]node, level int, n node, outages []impact.Perturbation) []impact.Perturbation {
	idx := setIndices(levels, level, n)
	ps := make([]impact.Perturbation, len(idx))
	for i, t := range idx {
		ps[i] = outages[t]
	}
	return ps
}

// topAcc maintains the bounded worst-contingency list, ordered by damage
// descending with lexicographic tie-breaks, so its contents are a pure
// function of the enumerated sets.
type topAcc struct {
	list []Contingency
}

func (t *topAcc) add(c Contingency, n int) {
	pos := sort.Search(len(t.list), func(i int) bool { return contingencyLess(c, t.list[i]) })
	if pos >= n {
		return
	}
	t.list = append(t.list, Contingency{})
	copy(t.list[pos+1:], t.list[pos:])
	t.list[pos] = c
	if len(t.list) > n {
		t.list = t.list[:n]
	}
}

// contingencyLess orders a before b: more damage first, then shorter sets,
// then lexicographic target IDs.
func contingencyLess(a, b Contingency) bool {
	if a.Delta != b.Delta {
		return a.Delta < b.Delta
	}
	if len(a.Targets) != len(b.Targets) {
		return len(a.Targets) < len(b.Targets)
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] {
			return a.Targets[i] < b.Targets[i]
		}
	}
	return false
}
