package main

import (
	"encoding/json"
)

// metric is one reported figure. End-to-end metrics carry the bound by which
// a later change may worsen their median; per-layer metrics carry none.
type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func bound(b float64) *float64 { return &b }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metric{
	{"op_s", "s", "lower", bound(0.25)},
	{"trial_p50_ms", "ms", "lower", bound(0.25)},
	{"trial_p90_ms", "ms", "lower", bound(0.25)},
	{"setup_s", "s", "lower", bound(0.25)},
	{"alloc_mb", "MB", "lower", bound(0.1)},
	{"peak_rss_mb", "MB", "lower", bound(0.25)},
	{"ok_frac", "ratio", "higher", bound(0.01)},
}

// perLayer splits the same work by module: exact per-op counts from the
// program's counters, and self times from the traced op.
var perLayer = []metric{
	{"adversary.solves", "count", "lower", nil},
	{"adversary.nodes", "count", "lower", nil},
	{"adversary.nodes_per_solve", "count", "lower", nil},
	{"adversary.unproven_exits", "count", "lower", nil},
	// adversary.proven_frac would be end to end if it held still across
	// seeds; on attack-matrix it is about 0.26 and its quartiles over ten
	// seeds span a quarter of that, wider than any bound allows.
	{"adversary.proven_frac", "ratio", "higher", nil},
	{"adversary.self_s", "s", "lower", nil},
	{"milp.self_s", "s", "lower", nil},
	{"lp.solves", "count", "lower", nil},
	{"lp.pivots", "count", "lower", nil},
	{"lp.pivots_per_solve", "count", "lower", nil},
	{"lp.self_s", "s", "lower", nil},
	{"lp.revised.factorizations", "count", "lower", nil},
	{"lp.revised.eta_updates", "count", "lower", nil},
	{"lp.warm_attempts", "count", "higher", nil},
	{"lp.warm_fallback_frac", "ratio", "lower", nil},
	{"solvecache.hits", "count", "higher", nil},
	{"solvecache.misses", "count", "lower", nil},
	{"solvecache.hit_frac", "ratio", "higher", nil},
	{"impact.matrix_cold_ms", "ms", "lower", nil},
	{"impact.matrix_cached_ms", "ms", "lower", nil},
	{"screen.evaluated", "count", "lower", nil},
	{"screen.pruned", "count", "higher", nil},
	{"screen.prune_frac", "ratio", "higher", nil},
	{"screen.run_s", "s", "lower", nil},
	{"screen.self_s", "s", "lower", nil},
	{"defense.pa_samples", "count", "lower", nil},
	{"knapsack.nodes", "count", "lower", nil},
	{"defense.self_s", "s", "lower", nil},
	{"experiments.trials", "count", "lower", nil},
	{"core.self_s", "s", "lower", nil},
	{"parallel.tasks", "count", "lower", nil},
	{"parallel.queue_wait_s", "s", "lower", nil},
	{"bench.self_s", "s", "lower", nil},
	{"trace.op_s", "s", "lower", nil},
	{"trace.overhead_frac", "ratio", "lower", nil},
	{"host_ref_ms", "ms", "lower", nil},
}

// layerOf maps a span stage to the layer its self time is charged to.
// Stages are "<module>.<operation>"; the experiments runners and the game
// round are one layer, core.
func layerOf(stage string) string {
	mod := stage
	for i := 0; i < len(stage); i++ {
		if stage[i] == '.' {
			mod = stage[:i]
			break
		}
	}
	if mod == "experiments" {
		return "core"
	}
	return mod
}

// selfLayers are the layers whose self times are reported; together they
// partition the traced op.
var selfLayers = []string{"adversary", "milp", "lp", "screen", "defense", "core", "bench"}

// prediction names, before any change is measured, which layer metric
// should move which end-to-end metric on which workload.
type prediction struct {
	Layer     string   `json:"layer"`
	Metrics   []string `json:"metrics"`
	Moves     []string `json:"moves"`
	Workloads string   `json:"workloads"`
}

var predictions = []prediction{
	{"adversary", []string{"adversary.solves", "adversary.nodes", "adversary.nodes_per_solve", "adversary.unproven_exits", "adversary.proven_frac", "adversary.self_s"},
		[]string{"op_s", "trial_p90_ms"}, "attack-matrix (unlisted) most; figs-graph little; national-screen not called"},
	{"lp (dense)", []string{"lp.solves", "lp.pivots", "lp.pivots_per_solve", "lp.self_s"},
		[]string{"op_s", "alloc_mb"}, "figs-graph most; attack-matrix (unlisted) about a third"},
	{"lp (revised + warm)", []string{"lp.revised.factorizations", "lp.revised.eta_updates", "lp.warm_attempts", "lp.warm_fallback_frac"},
		[]string{"op_s"}, "national-screen most; attack-matrix (unlisted; dense warm re-entry); figs-graph none (warm start off)"},
	{"impact + solvecache", []string{"solvecache.hits", "solvecache.misses", "solvecache.hit_frac", "impact.matrix_cold_ms", "impact.matrix_cached_ms"},
		[]string{"op_s", "alloc_mb"}, "national-screen (writes); attack-matrix (unlisted; reads); figs-graph none (no cache); impact.matrix_cached_ms reads on every workload"},
	{"screen", []string{"screen.evaluated", "screen.pruned", "screen.prune_frac", "screen.run_s", "screen.self_s"},
		[]string{"op_s"}, "national-screen only"},
	{"defense + knapsack", []string{"defense.pa_samples", "knapsack.nodes", "defense.self_s"},
		[]string{"op_s", "trial_p50_ms"}, "figs-graph only (Figs 5-7)"},
	{"core / experiments", []string{"experiments.trials", "core.self_s"},
		[]string{"op_s", "alloc_mb"}, "figs-graph most"},
	{"parallel", []string{"parallel.tasks", "parallel.queue_wait_s"},
		[]string{"trial_p50_ms", "trial_p90_ms"}, "all; at one worker the feeder stamps a task before waiting for the busy worker, so queue wait tracks task time and a scheduling change shows up as waiting"},
	{"tracing", []string{"trace.overhead_frac"}, nil, "all"},
}

// benchSpec is the BENCHMARK.json document.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metric       `json:"end_to_end"`
	PerLayer   []metric       `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one run measures.
const runSeconds = 50

// specJSON renders BENCHMARK.json from the tables above, so the file and
// the program cannot drift apart.
func specJSON() ([]byte, error) {
	s := benchSpec{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
