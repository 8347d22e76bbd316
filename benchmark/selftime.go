package main

import (
	"fmt"
	"sort"

	"cpsguard/internal/telemetry"
)

// selfTime splits a traced op's wall time across layers. A span's self time
// is its duration minus the part of its interval that its children cover.
//
// Spans opened with a context name their parent. Spans opened without one
// (the dispatch solves that impact and screen issue) are roots; at one
// worker every span runs on one thread, so each such root is given the
// innermost span whose interval contains it. After that the trace must be a
// single tree whose siblings never overlap in time, which is what makes the
// self times an exact partition of the root's duration. Anything else — a
// partial overlap, overlapping siblings, a child outside its parent, a
// second top-level root — is reported as an error rather than guessed at.
//
// It returns the self time per layer (layerOf maps a span stage to its
// layer) and the root span's duration, both in nanoseconds.
func selfTime(recs []telemetry.SpanRecord, layerOf func(stage string) string) (map[string]int64, int64, error) {
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("selftime: no spans")
	}
	byID := make(map[uint64]int, len(recs))
	for i, r := range recs {
		if r.DurationNS < 0 {
			return nil, 0, fmt.Errorf("selftime: span %d (%s) has negative duration", r.ID, r.Stage)
		}
		if _, dup := byID[r.ID]; dup {
			return nil, 0, fmt.Errorf("selftime: duplicate span id %d", r.ID)
		}
		byID[r.ID] = i
	}
	end := func(i int) int64 { return recs[i].StartNS + recs[i].DurationNS }
	contains := func(outer, inner int) bool {
		return recs[outer].StartNS <= recs[inner].StartNS && end(inner) <= end(outer)
	}

	// Sweep spans by start (longest first on ties) with a stack of open
	// intervals: after popping the intervals that end before a span, the
	// top of the stack is its innermost container.
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ra, rb := recs[order[a]], recs[order[b]]
		if ra.StartNS != rb.StartNS {
			return ra.StartNS < rb.StartNS
		}
		if end(order[a]) != end(order[b]) {
			return end(order[a]) > end(order[b])
		}
		return ra.ID < rb.ID
	})
	parent := make([]int, len(recs)) // index of the parent span, -1 for the root
	var stack []int
	root := -1
	for _, i := range order {
		for len(stack) > 0 && !contains(stack[len(stack)-1], i) {
			top := stack[len(stack)-1]
			if recs[i].StartNS < end(top) {
				return nil, 0, fmt.Errorf("selftime: span %d (%s) partially overlaps span %d (%s)",
					recs[i].ID, recs[i].Stage, recs[top].ID, recs[top].Stage)
			}
			stack = stack[:len(stack)-1]
		}
		switch {
		case recs[i].ParentID != 0:
			p, ok := byID[recs[i].ParentID]
			if !ok {
				return nil, 0, fmt.Errorf("selftime: span %d (%s) names missing parent %d",
					recs[i].ID, recs[i].Stage, recs[i].ParentID)
			}
			if !contains(p, i) {
				return nil, 0, fmt.Errorf("selftime: span %d (%s) lies outside its parent %d (%s)",
					recs[i].ID, recs[i].Stage, recs[p].ID, recs[p].Stage)
			}
			parent[i] = p
		case len(stack) > 0:
			parent[i] = stack[len(stack)-1]
		default:
			if root >= 0 {
				return nil, 0, fmt.Errorf("selftime: two top-level spans: %d (%s) and %d (%s)",
					recs[root].ID, recs[root].Stage, recs[i].ID, recs[i].Stage)
			}
			root = i
			parent[i] = -1
		}
		stack = append(stack, i)
	}

	children := make(map[int][]int)
	for _, i := range order { // start order, so each child list is sorted by start
		if parent[i] >= 0 {
			children[parent[i]] = append(children[parent[i]], i)
		}
	}
	layers := map[string]int64{}
	for i := range recs {
		covered := int64(0)
		for k, c := range children[i] {
			if k > 0 && recs[c].StartNS < end(children[i][k-1]) {
				prev := children[i][k-1]
				return nil, 0, fmt.Errorf("selftime: sibling spans %d (%s) and %d (%s) overlap",
					recs[prev].ID, recs[prev].Stage, recs[c].ID, recs[c].Stage)
			}
			covered += recs[c].DurationNS
		}
		layers[layerOf(recs[i].Stage)] += recs[i].DurationNS - covered
	}
	return layers, recs[root].DurationNS, nil
}
