// Acceptance tests for sharded sweeps: the union of n shard journals,
// replayed in strict mode, must render CSV output byte-identical to a
// single-process run — including when a shard crashed mid-sweep and was
// resumed from its journal before the merge.
package experiments

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/parallel"
	"cpsguard/internal/shard"
	"cpsguard/internal/stats"
	"cpsguard/internal/telemetry"
)

// runShard executes one shard of the resumeConfig Fig2 sweep into its own
// directory, journaling only its owned trials, and stamps a completed
// manifest — the in-process equivalent of `cpsexp -shard i/n`.
func runShard(t *testing.T, parent string, a shard.Assignment) {
	t.Helper()
	runShardOf(t, parent, a, resumeConfig(), Fig2)
}

// runShardOf is runShard for any runner and configuration.
func runShardOf(t *testing.T, parent string, a shard.Assignment, cfg Config,
	run func(Config) (*stats.Table, error)) {
	t.Helper()
	dir := filepath.Join(parent, a.DirName())
	j, rep, err := checkpoint.Resume(filepath.Join(dir, shard.JournalName), checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sweep := &checkpoint.Sweep{Journal: j, Replay: rep}
	cfg.Sweep = sweep
	cfg.Shard = &a
	if _, err := run(cfg); err != nil {
		t.Fatal(err)
	}
	m := shard.NewManifest(a, cfg.Seed, "testkey")
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

// mergedCSV merges the shard directories under parent and re-renders Fig2
// in strict replay mode — every trial must come from a shard journal.
func mergedCSV(t *testing.T, parent string) string {
	t.Helper()
	return mergedCSVOf(t, parent, resumeConfig(), Fig2)
}

// mergedCSVOf is mergedCSV for any runner and configuration.
func mergedCSVOf(t *testing.T, parent string, cfg Config,
	run func(Config) (*stats.Table, error)) string {
	t.Helper()
	dirs, err := shard.DiscoverShards(parent)
	if err != nil {
		t.Fatal(err)
	}
	res, err := shard.Merge(dirs, shard.MergeOptions{ExpectKey: "testkey"})
	if err != nil {
		t.Fatal(err)
	}
	sweep := &checkpoint.Sweep{Replay: res.Replay, RequireReplay: true}
	cfg.Sweep = sweep
	tb, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Executed() != 0 {
		t.Fatalf("merged run executed %d trials; strict replay must execute none", sweep.Executed())
	}
	return tb.CSV()
}

// TestShardedSweepByteIdentical is the tentpole acceptance check: a 3-way
// sharded run of the Fig2 sweep, merged, renders the exact bytes of the
// single-process run.
func TestShardedSweepByteIdentical(t *testing.T) {
	baseline, err := Fig2(resumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	for i := 0; i < 3; i++ {
		runShard(t, parent, shard.Assignment{Index: i, Count: 3})
	}
	if got := mergedCSV(t, parent); got != baseline.CSV() {
		t.Fatalf("merged CSV differs from single-process run:\n--- want\n%s\n--- got\n%s",
			baseline.CSV(), got)
	}
}

// TestShardSkipsUnownedTrials: a shard journals exactly its owned trials —
// no more (overlap) and no less (gap) — and the fault log never hears about
// the trials it skipped.
func TestShardSkipsUnownedTrials(t *testing.T) {
	parent := t.TempDir()
	a := shard.Assignment{Index: 1, Count: 3}
	log := &FaultLog{}
	dir := filepath.Join(parent, a.DirName())
	j, err := checkpoint.Create(filepath.Join(dir, shard.JournalName), checkpoint.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig()
	cfg.Sweep = &checkpoint.Sweep{Journal: j}
	cfg.Shard = &a
	cfg.Faults = FaultPolicy{Log: log}
	if _, err := Fig2(cfg); err != nil {
		t.Fatal(err)
	}
	j.Close()
	rep, err := checkpoint.Load(filepath.Join(dir, shard.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	// resumeConfig is 2 points x 6 trials; shard 1/3 owns trials 1 and 4 of
	// each point.
	if rep.Len() != 4 {
		t.Fatalf("shard journaled %d trials, want 4", rep.Len())
	}
	for _, id := range rep.IDs() {
		idx, err := checkpoint.TrialIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		if !a.Owns(idx) {
			t.Fatalf("shard journaled unowned trial %s", id)
		}
	}
	if got := log.Trials(); got != 4 {
		t.Fatalf("fault log saw %d trials, want 4 (unowned trials must not be counted)", got)
	}
}

// TestShardCrashResumeMergeByteIdentical is the fault-injected acceptance
// check: shard 0 is killed mid-sweep (pool canceled after two of its trials
// settle), resumed from its journal, and the merge must still render the
// single-process bytes.
func TestShardCrashResumeMergeByteIdentical(t *testing.T) {
	baseline, err := Fig2(resumeConfig())
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()

	// --- Shard 0, first attempt: crash after two settled trials.
	a0 := shard.Assignment{Index: 0, Count: 2}
	dir0 := filepath.Join(parent, a0.DirName())
	jpath := filepath.Join(dir0, shard.JournalName)
	j, err := checkpoint.Create(jpath, checkpoint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	settled := 0
	cfg := resumeConfig()
	cfg.Sweep = &checkpoint.Sweep{Journal: j}
	cfg.Shard = &a0
	cfg.Parallel = parallel.Options{
		Context: ctx,
		Workers: 2,
		OnSettle: func(i int, err error) {
			if errors.Is(err, errTrialNotAssigned) {
				return
			}
			mu.Lock()
			settled++
			if settled == 2 {
				cancel()
			}
			mu.Unlock()
		},
	}
	if _, err := Fig2(cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted shard err = %v, want Canceled", err)
	}
	j.Close()
	partial, err := checkpoint.Load(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Len() == 0 || partial.Len() >= 6 {
		t.Fatalf("crash left %d of 6 records — timing made the test vacuous", partial.Len())
	}

	// --- Shard 0, restart: resume replays the prefix, executes the rest.
	runShard(t, parent, a0)
	// --- Shard 1: clean single run.
	runShard(t, parent, shard.Assignment{Index: 1, Count: 2})

	if got := mergedCSV(t, parent); got != baseline.CSV() {
		t.Fatalf("merged CSV after crash+resume differs from single-process run:\n--- want\n%s\n--- got\n%s",
			baseline.CSV(), got)
	}
}

// TestStrictReplayFailsOnMissingTrial: handing the experiment runners a
// replay that covers only half the sweep under RequireReplay must fail with
// MissingTrialError — never silently recompute the gap.
func TestStrictReplayFailsOnMissingTrial(t *testing.T) {
	parent := t.TempDir()
	a0 := shard.Assignment{Index: 0, Count: 2}
	runShard(t, parent, a0)
	rep, err := checkpoint.Load(filepath.Join(parent, a0.DirName(), shard.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	cfg := resumeConfig()
	cfg.Sweep = &checkpoint.Sweep{Replay: rep, RequireReplay: true}
	_, err = Fig2(cfg)
	var missing *checkpoint.MissingTrialError
	if !errors.As(err, &missing) {
		t.Fatalf("err = %v, want MissingTrialError", err)
	}
}

// TestShardDefersFaultPolicyToMerge: a shard whose only owned trial of a
// point fails must not hard-fail the point — it cannot see its siblings'
// trials, so the failure is journaled and the rate policy is enforced at the
// merge, which replays the whole point.
func TestShardDefersFaultPolicyToMerge(t *testing.T) {
	parent := t.TempDir()
	a := shard.Assignment{Index: 0, Count: 6} // owns exactly trial 0 of each point
	dir := filepath.Join(parent, a.DirName())
	j, err := checkpoint.Create(filepath.Join(dir, shard.JournalName), checkpoint.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	kill := func(site string) error { return errors.New("injected") }
	log := &FaultLog{}
	cfg := resumeConfig()
	cfg.Sweep = &checkpoint.Sweep{Journal: j}
	cfg.Shard = &a
	cfg.Faults = FaultPolicy{Hook: kill, Log: log} // strict policy, every owned trial fails
	if _, err := Fig2(cfg); err != nil {
		t.Fatalf("shard hard-failed instead of deferring the fault policy: %v", err)
	}
	j.Close()
	if len(log.Failures()) != 2 {
		t.Fatalf("fault log has %d failures, want 2 (one owned trial per point)", len(log.Failures()))
	}
	rep, err := checkpoint.Load(filepath.Join(dir, shard.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Len() != 2 {
		t.Fatalf("journal has %d records, want 2 — failures must be journaled for the merge", rep.Len())
	}

	// The merge-side run sees the whole point and must enforce the policy.
	cfg2 := resumeConfig()
	cfg2.Sweep = &checkpoint.Sweep{Replay: rep} // non-strict: other trials execute
	if _, err := Fig2(cfg2); err == nil {
		t.Fatal("merge-side run tolerated a failure the strict policy forbids")
	}
}

// TestShardHardeningJournalsOwnedTrials: HardeningComparison runs its trials
// through the shared trial runner, so shard 0/2 journals exactly its owned
// trials of every budget, and the merged shards replay to the unsharded
// table byte for byte.
func TestShardHardeningJournalsOwnedTrials(t *testing.T) {
	cfg := fastCfg()
	baseline, err := HardeningComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	parent := t.TempDir()
	a0 := shard.Assignment{Index: 0, Count: 2}
	runShardOf(t, parent, a0, cfg, HardeningComparison)
	rep, err := checkpoint.Load(filepath.Join(parent, a0.DirName(), shard.JournalName))
	if err != nil {
		t.Fatal(err)
	}
	// Four budgets × four trials; shard 0/2 owns trials 0 and 2 of each.
	if rep.Len() != 8 {
		t.Fatalf("shard journaled %d trials, want 8", rep.Len())
	}
	for _, id := range rep.IDs() {
		idx, err := checkpoint.TrialIndex(id)
		if err != nil {
			t.Fatal(err)
		}
		if !a0.Owns(idx) || !strings.Contains(id, "|hardening budget=") {
			t.Fatalf("shard journaled %s, want only its own hardening trials", id)
		}
	}
	runShardOf(t, parent, shard.Assignment{Index: 1, Count: 2}, cfg, HardeningComparison)
	if got := mergedCSVOf(t, parent, cfg, HardeningComparison); got != baseline.CSV() {
		t.Fatalf("merged CSV differs from single-process run:\n--- want\n%s\n--- got\n%s",
			baseline.CSV(), got)
	}
}

// TestShardDeceptionSolvesOwnedReferences: Deception solves each trial's
// undeceived reference inside the trial, once, so shard 0/2 of a 4-trial run
// solves the adversary for its two owned trials only: one reference and one
// deceived plan per σ each.
func TestShardDeceptionSolvesOwnedReferences(t *testing.T) {
	cfg := fastCfg()
	cfg.Shard = &shard.Assignment{Index: 0, Count: 2}
	solves := telemetry.Default().Counter("adversary.solves")
	before := solves.Value()
	if _, err := Deception(cfg); err != nil {
		t.Fatal(err)
	}
	if got, want := solves.Value()-before, int64(2*(1+len(cfg.SigmaGrid))); got != want {
		t.Fatalf("shard 0/2 ran %d adversary solves, want %d (its 2 trials × (reference + %d σ))",
			got, want, len(cfg.SigmaGrid))
	}
}
