package main

import (
	"strings"
	"testing"

	"cpsguard/internal/telemetry"
)

// sp builds a span record over [start, end).
func sp(id, parent uint64, stage string, start, end int64) telemetry.SpanRecord {
	return telemetry.SpanRecord{ID: id, ParentID: parent, Stage: stage, StartNS: start, DurationNS: end - start}
}

func TestSelfTimePartitionsTree(t *testing.T) {
	recs := []telemetry.SpanRecord{
		sp(1, 0, "bench.op", 0, 100),
		sp(2, 1, "experiments.fig3", 10, 90),
		sp(3, 0, "lp.solve", 20, 30), // no context: belongs to fig3 by containment
		sp(4, 2, "adversary.solve", 40, 80),
		sp(5, 0, "lp.solve", 50, 60), // no context: innermost container is the solve
		sp(6, 4, "milp.solve", 60, 70),
		sp(7, 0, "lp.solve", 90, 90), // zero length, at fig3's end
	}
	layers, total, err := selfTime(recs, layerOf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"bench": 20, "core": 30, "lp": 20, "adversary": 20, "milp": 10}
	for l, ns := range want {
		if layers[l] != ns {
			t.Errorf("%s self time = %d, want %d (all: %v)", l, layers[l], ns, layers)
		}
	}
	var sum int64
	for _, ns := range layers {
		sum += ns
	}
	if total != 100 || sum != total {
		t.Errorf("self times sum to %d over a root of %d, want both 100", sum, total)
	}
}

func TestSelfTimeRejectsInconsistentTraces(t *testing.T) {
	for _, tc := range []struct {
		name string
		recs []telemetry.SpanRecord
		want string
	}{
		{"overlapping siblings", []telemetry.SpanRecord{
			sp(1, 0, "bench.op", 0, 100),
			sp(2, 1, "core.round", 10, 50),
			sp(3, 1, "core.round", 40, 60),
		}, "overlap"},
		{"sibling nested in sibling", []telemetry.SpanRecord{
			sp(1, 0, "bench.op", 0, 100),
			sp(2, 1, "core.round", 10, 50),
			sp(3, 1, "core.round", 20, 30),
		}, "overlap"},
		{"child outside parent", []telemetry.SpanRecord{
			sp(1, 0, "bench.op", 0, 100),
			sp(2, 1, "core.round", 10, 50),
			sp(3, 2, "lp.solve", 60, 70),
		}, "outside"},
		{"missing parent", []telemetry.SpanRecord{
			sp(1, 0, "bench.op", 0, 100),
			sp(2, 9, "lp.solve", 10, 20),
		}, "missing parent"},
		{"two top-level spans", []telemetry.SpanRecord{
			sp(1, 0, "bench.op", 0, 100),
			sp(2, 0, "lp.solve", 100, 120),
		}, "two top-level"},
		{"no spans", nil, "no spans"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := selfTime(tc.recs, layerOf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

func TestLayerOf(t *testing.T) {
	for stage, want := range map[string]string{
		"experiments.trial": "core", "core.round": "core", "lp.solve": "lp",
		"defense.pa_estimate": "defense", "screen.run": "screen", "bench.op": "bench",
	} {
		if got := layerOf(stage); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", stage, got, want)
		}
	}
}
