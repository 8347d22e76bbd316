// Regression tests for the defense-as-redesign sweep, centred on the
// dense-trial-index assumption the figure sweeps used to bake in: the
// interventions trial axis is a candidate menu, evaluated here in sparse
// pieces (Config.TrialIndices) that must journal exactly what a dense run
// would, merge losslessly, and refuse to merge across different menus.
package experiments

import (
	"errors"
	"path/filepath"
	"testing"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/shard"
)

func interventionConfig(t *testing.T) Config {
	t.Helper()
	g, err := gridgen.Build(gridgen.Config{Regions: 2, Seed: 4, Stress: true})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Graph:           g,
		Seed:            33,
		ScreenK:         1,
		InterventionMax: 4,
	}
}

// runInterventionPiece evaluates one sparse piece of the candidate menu into
// its own shard directory with a stamped manifest — the in-process
// equivalent of `cpsexp -interventions -shard i/n`.
func runInterventionPiece(t *testing.T, parent string, a shard.Assignment, idxs []int) {
	t.Helper()
	dir := filepath.Join(parent, a.DirName())
	j, rep, err := checkpoint.Resume(filepath.Join(dir, shard.JournalName), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := interventionConfig(t)
	sweep := &checkpoint.Sweep{Journal: j, Replay: rep}
	cfg.Sweep = sweep
	cfg.TrialIndices = idxs
	if _, err := Interventions(cfg); err != nil {
		t.Fatal(err)
	}
	m := shard.NewManifest(a, cfg.Seed, "ivkey")
	m.JournalRecords = int(j.Seq())
	m.Executed = sweep.Executed()
	m.Replayed = sweep.Replayed()
	m.Completed = true
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	m.StampJournal(dir)
	if err := m.Write(dir); err != nil {
		t.Fatal(err)
	}
}

// TestInterventionSweepSparseMergeByteIdentical: the menu evaluated as two
// sparse pieces (even and odd candidate indices), merged, replays in strict
// mode to the exact bytes of the dense single-process run — including the
// "chosen" knapsack series, which only a complete value set can produce.
func TestInterventionSweepSparseMergeByteIdentical(t *testing.T) {
	baseline, err := Interventions(interventionConfig(t))
	if err != nil {
		t.Fatal(err)
	}

	cands := gridgen.CandidateInterventions(interventionConfig(t).Graph,
		gridgen.InterventionOptions{Max: 4})
	var evens, odds []int
	for i := range cands {
		if i%2 == 0 {
			evens = append(evens, i)
		} else {
			odds = append(odds, i)
		}
	}
	if len(evens) == 0 || len(odds) == 0 {
		t.Fatalf("menu of %d candidates cannot split into two pieces", len(cands))
	}

	parent := t.TempDir()
	runInterventionPiece(t, parent, shard.Assignment{Index: 0, Count: 2}, evens)
	runInterventionPiece(t, parent, shard.Assignment{Index: 1, Count: 2}, odds)

	dirs, err := shard.DiscoverShards(parent)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.Merge(dirs, shard.MergeOptions{ExpectKey: "ivkey"})
	if err != nil {
		t.Fatal(err)
	}
	cfg := interventionConfig(t)
	sweep := &checkpoint.Sweep{Replay: res.Replay, RequireReplay: true}
	cfg.Sweep = sweep
	tb, err := Interventions(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Executed() != 0 {
		t.Fatalf("merged run executed %d trials; strict replay must execute none", sweep.Executed())
	}
	if got := tb.CSV(); got != baseline.CSV() {
		t.Fatalf("merged sparse pieces differ from dense run:\n--- want\n%s\n--- got\n%s",
			baseline.CSV(), got)
	}
	foundChosen := false
	for _, s := range tb.Series {
		if s.Name == "chosen" {
			foundChosen = true
		}
	}
	if !foundChosen {
		t.Fatal("merged dense replay missing the knapsack 'chosen' series")
	}
}

// TestInterventionSweepRejectsForeignMenu: a journal recorded against one
// candidate menu must not replay into a sweep over a different menu — the
// menu digest is part of every trial's durable identity, so strict replay
// fails with MissingTrialError instead of silently mixing values.
func TestInterventionSweepRejectsForeignMenu(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "iv.journal")
	j, err := checkpoint.Create(jpath, checkpoint.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := interventionConfig(t)
	cfg.Sweep = &checkpoint.Sweep{Journal: j}
	if _, err := Interventions(cfg); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rep, err := checkpoint.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}

	foreign := interventionConfig(t)
	foreign.InterventionMax = 3 // different menu → different digest
	foreign.Sweep = &checkpoint.Sweep{Replay: rep, RequireReplay: true}
	_, err = Interventions(foreign)
	var missing *checkpoint.MissingTrialError
	if !errors.As(err, &missing) {
		t.Fatalf("foreign-menu replay err = %v, want MissingTrialError", err)
	}
}

// TestInterventionSweepOutOfRangeIndex locks the sparse-index validation.
func TestInterventionSweepOutOfRangeIndex(t *testing.T) {
	cfg := interventionConfig(t)
	cfg.TrialIndices = []int{0, 99}
	if _, err := Interventions(cfg); err == nil {
		t.Fatal("out-of-range trial index accepted")
	}
}

// TestInterventionChosenWithinBudget: the knapsack's "chosen" series of a
// dense run builds candidates whose "cost" rows sum to no more than the
// default capital budget, half the menu's total cost.
func TestInterventionChosenWithinBudget(t *testing.T) {
	tb, err := Interventions(interventionConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{}
	for _, s := range tb.Series {
		series[s.Name] = s.Ys()
	}
	costs, chosen := series["cost"], series["chosen"]
	if len(chosen) == 0 || len(chosen) != len(costs) {
		t.Fatalf("dense run has %d chosen rows for %d candidates", len(chosen), len(costs))
	}
	total, spent := 0.0, 0.0
	for i, c := range costs {
		total += c
		if chosen[i] == 1 {
			spent += c
		}
	}
	if budget := total / 2; spent > budget+1e-9 {
		t.Errorf("chosen candidates cost %v, over the budget %v", spent, budget)
	}
}
