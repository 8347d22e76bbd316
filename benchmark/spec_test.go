package main

import (
	"os"
	"regexp"
	"testing"
)

// TestSpecMatchesBenchmarkJSON keeps the committed BENCHMARK.json in step
// with the tables it is rendered from: regenerate it with
//
//	bash benchmark/run.sh --spec > BENCHMARK.json
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with --spec. Want:\n%s", want)
	}
}

func TestSpecLimits(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metric, endToEnd bool) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
		if endToEnd != (m.Bound != nil) {
			t.Errorf("%s: a bound belongs on end-to-end metrics only", m.Name)
		}
		if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, *m.Bound)
		}
	}
	for _, m := range endToEnd {
		check(m, true)
	}
	for _, m := range perLayer {
		check(m, false)
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 {
			t.Errorf("workload %q: malformed name, repeated, or why longer than 200 characters", w.name)
		}
		seen[w.name] = true
	}
	// Every self-time layer is reported, so the reported self times
	// partition the traced op.
	for _, l := range selfLayers {
		if !seen[l+".self_s"] {
			t.Errorf("layer %s has no %s.self_s metric", l, l)
		}
	}
}
