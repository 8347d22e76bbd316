// Sharded-sweep modes for cpsexp: -shard i/n runs one slice of the sweep
// into its own crash-safe journal, -shard-supervise n runs all n slices as
// supervised child processes of this binary, and -shard-merge DIR proves
// the slices back together into output byte-identical to a single-process
// run. See internal/shard for the partition, supervision, and merge
// machinery; this file is the CLI glue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cpsguard/internal/checkpoint"
	"cpsguard/internal/manifest"
	"cpsguard/internal/obs"
	"cpsguard/internal/shard"
	"cpsguard/internal/telemetry"
)

// sweepKeyFlags are the result-affecting flags hashed into the sweep key.
// Shards and merges must agree on these for their journals to describe the
// same trial space; observability, caching, and sharding flags are excluded
// because they never change which trials run or what they produce.
var sweepKeyFlags = []string{"fig", "trials", "seed", "mode", "quick", "max-fault-rate", "chaos",
	"screen-k", "interventions", "grid"}

// runFlags are the flags a supervisor forwards to its shards besides
// sweepKeyFlags: they shape how a shard runs, never what it produces.
var runFlags = []string{"retries", "trial-timeout", "solve-cache", "log-level"}

// sweepKeyExtra holds result-affecting facts that no flag value captures —
// today the interventions candidate-menu digest, which depends on the
// *content* of the -grid file, not just its path. main() populates it before
// any sweep key is computed.
var sweepKeyExtra = map[string]string{}

// sweepKey fingerprints the effective sweep configuration. It reuses the
// manifest's order-insensitive flag checksum, so defaulted and explicit
// values hash identically.
func sweepKey() string {
	vals := map[string]string{}
	for _, name := range sweepKeyFlags {
		if f := flag.Lookup(name); f != nil {
			vals[name] = f.Value.String()
		}
	}
	for k, v := range sweepKeyExtra {
		vals[k] = v
	}
	return manifest.ConfigChecksum(vals)
}

// shardRun is the state of one -shard i/n invocation: the resumed journal,
// the sweep bundle threaded into the experiment runners, and the manifest
// that finish() persists whatever happens.
type shardRun struct {
	Assignment shard.Assignment
	Dir        string
	Sweep      *checkpoint.Sweep
	Manifest   *shard.Manifest
	journal    *checkpoint.Journal
	log        *obs.Logger
	reportURL  string
	stopReport func()
}

// prepareShardRun opens (or resumes) the shard's journal under
// parentDir/shard-III-of-NNN and builds its sweep bundle. Restarts are the
// normal case — the supervisor relaunches crashed shards — so the journal
// is always opened with Resume, and every resume or torn-tail repair lands
// in the shard manifest's fault history.
func prepareShardRun(spec, parentDir string, seed uint64, retries int,
	trialTimeout time.Duration, reportURL string, log *obs.Logger) (*shardRun, error) {
	a, err := shard.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(parentDir, a.DirName())
	man := shard.NewManifest(a, seed, sweepKey())
	if prev, err := shard.LoadManifest(dir); err == nil {
		if prev.SweepKey != man.SweepKey || prev.Seed != seed {
			return nil, fmt.Errorf("shard dir %s holds a different sweep (key %.12s, want %.12s); point -shard-dir elsewhere or clear it",
				dir, prev.SweepKey, man.SweepKey)
		}
		man.Faults = prev.Faults
		man.Executed = prev.Executed
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	j, rep, err := checkpoint.Resume(filepath.Join(dir, shard.JournalName), checkpoint.Options{})
	if err != nil {
		return nil, err
	}
	if rep.TruncatedBytes > 0 {
		man.AddFault("torn_tail", "truncated %d torn bytes on resume", rep.TruncatedBytes)
		log.Warn("shard journal tail truncated", obs.F("shard", a.Spec()),
			obs.F("bytes", rep.TruncatedBytes))
	}
	if rep.Len() > 0 {
		man.AddFault("resumed", "restart resumed %d journaled trials", rep.Len())
		log.Info("shard resuming from journal", obs.F("shard", a.Spec()),
			obs.F("completed_trials", rep.Len()))
	}
	sr := &shardRun{
		Assignment: a, Dir: dir, Manifest: man, journal: j, log: log,
		reportURL: reportURL,
		Sweep: &checkpoint.Sweep{
			Journal: j, Replay: rep,
			Retry:    checkpoint.Retrier{MaxRetries: retries, Seed: seed, Log: log},
			Watchdog: checkpoint.Watchdog{Deadline: trialTimeout},
			Log:      log,
		},
	}
	sr.startReporting()
	return sr, nil
}

// startReporting streams this shard's counter snapshots to the supervisor's
// aggregation endpoint every few seconds. Strictly best-effort: a dead
// aggregator must never slow or fail the shard, so errors are debug events.
func (s *shardRun) startReporting() {
	if s.reportURL == "" {
		s.stopReport = func() {}
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.stopReport = cancel
	go func() {
		tick := time.NewTicker(5 * time.Second)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				s.post()
			}
		}
	}()
}

func (s *shardRun) post() {
	// Timings ride along so the supervisor's rollup can merge fleet latency
	// distributions, not just counters.
	snap := telemetry.Default().Snapshot(telemetry.SnapshotOptions{Timings: true})
	if err := shard.PostSnapshot(s.reportURL, s.Assignment.Spec(), snap); err != nil {
		s.log.Debug("snapshot post failed", obs.F("url", s.reportURL), obs.F("err", err))
	}
}

// finish persists the shard's artifacts: the telemetry snapshot, the final
// manifest (completed or not), and — when reporting — one last snapshot
// post. Called on both success and failure so a crashed shard still leaves
// an honest shard.json behind for the supervisor and the merge.
func (s *shardRun) finish(completed bool, runErr error, abandoned int) error {
	s.stopReport()
	s.Manifest.Executed += s.Sweep.Executed()
	s.Manifest.Replayed = s.Sweep.Replayed()
	s.Manifest.JournalRecords = int(s.journal.Seq())
	s.Manifest.Completed = completed
	if runErr != nil {
		s.Manifest.AddFault("crashed", "sweep failed: %v", runErr)
	}
	if abandoned > 0 {
		s.Manifest.AddFault("abandoned_trials", "%d trials abandoned after retries (journaled as failures)", abandoned)
	}
	if err := s.journal.Close(); err != nil {
		return err
	}
	if err := telemetry.Default().WriteSnapshot(
		filepath.Join(s.Dir, shard.MetricsName), telemetry.SnapshotOptions{Timings: true}); err != nil {
		return err
	}
	// When this shard inherited (or started) a trace, leave its span tree in
	// the shard dir; cpsreport -trace-merge stitches the per-shard files plus
	// the supervisor's own trace.json into one fleet timeline.
	if telemetry.Default().Tracing() {
		if err := telemetry.Default().WriteChromeTrace(
			filepath.Join(s.Dir, "trace.json")); err != nil {
			s.log.Warn("shard trace not written", obs.F("err", err))
		}
	}
	s.Manifest.StampJournal(s.Dir)
	if err := s.Manifest.Write(s.Dir); err != nil {
		return err
	}
	if s.reportURL != "" {
		s.post()
	}
	s.log.Info("shard finished", obs.F("shard", s.Assignment.Spec()),
		obs.F("completed", completed), obs.F("executed", s.Sweep.Executed()),
		obs.F("replayed", s.Sweep.Replayed()), obs.F("records", s.Manifest.JournalRecords))
	return nil
}

// execHandle adapts a child cpsexp process to shard.Handle.
type execHandle struct {
	cmd  *exec.Cmd
	log  *obs.Logger
	span *telemetry.Span
}

func (h *execHandle) Wait() error {
	err := h.cmd.Wait()
	h.span.End()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) && exitErr.ExitCode() == exitAbandonedTrials {
		// The shard finished its sweep; some trials were abandoned after
		// retries and journaled as failures. That is a degraded success:
		// restarting would only replay the same failures, so report done
		// and let the merge surface the abandoned trials.
		h.log.Warn("shard completed with abandoned trials", obs.F("exit", exitAbandonedTrials))
		return nil
	}
	return err
}

func (h *execHandle) Kill() {
	if h.cmd.Process != nil {
		h.cmd.Process.Kill()
	}
}

// childArgs rebuilds the command line for shard index of count: the current
// invocation's sweep flags plus the shard assignment, minus everything
// supervise-specific. Children journal and report; they do not print
// tables or write CSVs.
func childArgs(index, count int, parentDir, reportURL string) []string {
	args := []string{
		"-shard", fmt.Sprintf("%d/%d", index, count),
		"-shard-dir", parentDir,
	}
	if reportURL != "" {
		args = append(args, "-shard-report", reportURL)
	}
	for _, name := range slices.Concat(sweepKeyFlags, runFlags) {
		f := flag.Lookup(name)
		if f == nil || f.Value.String() == f.DefValue {
			continue
		}
		if f.Value.String() == "true" { // boolean flags render without a value
			args = append(args, "-"+name)
			continue
		}
		args = append(args, "-"+name, f.Value.String())
	}
	return args
}

// superviseShards runs count child shards of this binary to completion
// under the shard supervisor, writes the supervision report to
// parentDir/supervisor.json, and returns it.
func superviseShards(ctx context.Context, count int, parentDir, reportURL string,
	stall time.Duration, maxRestarts int, seed uint64, log *obs.Logger) (*shard.Report, error) {
	bin, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("cannot locate own binary for shard children: %w", err)
	}
	sup := &shard.Supervisor{
		Count: count,
		Launch: func(ctx context.Context, index, attempt int) (shard.Handle, error) {
			cmd := exec.CommandContext(ctx, bin, childArgs(index, count, parentDir, reportURL)...)
			cmd.Stdout = os.Stderr // children print no tables; anything else is diagnostics
			cmd.Stderr = os.Stderr
			// One span per launch attempt, parented under the supervise root
			// threaded through ctx; the child inherits the trace through the
			// environment, so its spans link back to this one in the merged
			// fleet timeline.
			sp, _ := telemetry.Default().StartSpanCtx(ctx,
				"shard.child", fmt.Sprintf("%d/%d attempt %d", index, count, attempt))
			cmd.Env = childEnv(os.Environ(), sp)
			if err := cmd.Start(); err != nil {
				sp.End()
				return nil, err
			}
			return &execHandle{cmd: cmd, span: sp,
				log: log.WithStage(fmt.Sprintf("shard %d/%d", index, count))}, nil
		},
		Progress: func(index int) int64 {
			a := shard.Assignment{Index: index, Count: count}
			fi, err := os.Stat(filepath.Join(parentDir, a.DirName(), shard.JournalName))
			if err != nil {
				return 0
			}
			return fi.Size()
		},
		StallTimeout: stall,
		MaxRestarts:  maxRestarts,
		Backoff:      checkpoint.Retrier{Seed: seed, BaseDelay: 500 * time.Millisecond, MaxDelay: 15 * time.Second},
		Log:          log,
	}
	report, runErr := sup.Run(ctx)
	if report != nil {
		if err := writeSupervisorReport(parentDir, report); err != nil {
			log.Warn("supervisor report not written", obs.F("err", err))
		}
	}
	return report, runErr
}

// childEnv builds a child shard's environment: the parent's, minus any
// stale trace inheritance, plus a traceparent naming sp when tracing is on
// (cli.StartRun in the child adopts it).
func childEnv(environ []string, sp *telemetry.Span) []string {
	env := environ[:0:0]
	for _, kv := range environ {
		if !strings.HasPrefix(kv, telemetry.TraceParentEnv+"=") {
			env = append(env, kv)
		}
	}
	if tc, ok := telemetry.Default().ChildTraceContext(sp); ok {
		env = append(env, telemetry.TraceParentEnv+"="+tc.TraceParent())
	}
	return env
}

func writeSupervisorReport(parentDir string, report *shard.Report) error {
	data, err := jsonIndent(report)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(parentDir, "supervisor.json"), data, 0o644)
}

// mergeShards validates and unions the shard directories under parentDir
// and returns the strict-replay sweep the figure runners must consume plus
// the merge result for the manifest. Every trial of the merged run must
// come from a shard journal; a gap fails the run.
func mergeShards(parentDir string, log *obs.Logger) (*checkpoint.Sweep, *shard.MergeResult, error) {
	dirs, err := shard.DiscoverShards(parentDir)
	if err != nil {
		return nil, nil, err
	}
	res, err := shard.Merge(dirs, shard.MergeOptions{ExpectKey: sweepKey(), Log: log})
	if err != nil {
		return nil, nil, err
	}
	log.Info("shards merged", obs.F("shards", res.Count), obs.F("trials", res.Trials))
	sweep := &checkpoint.Sweep{Replay: res.Replay, RequireReplay: true, Log: log}
	return sweep, res, nil
}

// writeMergedManifest persists the merge's provenance record as
// parentDir/manifest.json: the standard run-manifest schema with every
// shard journal digested as an input, the merged CSVs as outputs, and the
// full per-shard fault history in the notes — so cpsreport can render and
// diff a merged run like any other.
func writeMergedManifest(parentDir string, res *shard.MergeResult, seed uint64, outputs []string) error {
	m := manifest.New("cpsexp-merge", int64(seed))
	m.CaptureFlags(flag.CommandLine)
	res.Stamp(m)
	for _, out := range outputs {
		m.AddOutput(out)
	}
	return m.Write(parentDir)
}

// ingestURL turns a -shard-report value (bare host:port or http:// URL)
// into the aggregator's ingest endpoint.
func ingestURL(s string) string {
	if s == "" {
		return ""
	}
	if !strings.HasPrefix(s, "http://") && !strings.HasPrefix(s, "https://") {
		s = "http://" + s
	}
	return s + "/shards/ingest"
}

// mountAggregator returns the debug-mux hook that serves the fleet
// aggregation endpoints.
func mountAggregator(agg *shard.Aggregator) func(mux *http.ServeMux) {
	return func(mux *http.ServeMux) { mux.Handle("/shards/", agg) }
}

func jsonIndent(v any) ([]byte, error) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
