// The -screen-k artifact: one deterministic N-k vulnerability ranking of
// the run's grid, persisted as screen.json in the observability directory
// for cpsreport to render. The ranking is welfare-based and so independent
// of any particular trial's ownership draw: the screen divides no dispatch,
// and the fixed 4-actor draw below only completes the analysis.
package main

import (
	"encoding/json"

	"cpsguard/internal/actors"
	"cpsguard/internal/graph"
	"cpsguard/internal/impact"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
)

// screenTop is how many worst contingencies the artifact retains.
const screenTop = 16

func screenArtifact(g *graph.Graph, k int, seed uint64, cache *solvecache.Cache) ([]byte, error) {
	an := &impact.Analysis{
		Graph:     g,
		Ownership: actors.RandomOwnership(g, 4, rng.Derive(seed, 0x5C12)),
		Cache:     cache,
	}
	r, err := screen.Run(screen.Config{Analysis: an, K: k, Top: screenTop})
	if err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
