// Command cpsexp regenerates the paper's evaluation figures (Figures 2–7)
// and the extension experiments on the built-in six-state model, printing
// each as an aligned table and optionally writing CSVs.
//
// Usage:
//
//	cpsexp [-fig all|ext|interventions|NAME] [-trials N] [-seed S]
//	       [-mode graph|matrix] [-csv DIR] [-quick]
//	       [-journal FILE] [-resume] [-retries N] [-trial-timeout D]
//	       [-obs DIR] [-log-level LEVEL] [-screen-k K]
//	       [-metrics FILE] [-trace] [-debug-addr ADDR]
//	cpsexp -shard i/n -shard-dir DIR [sweep flags]
//	cpsexp -shard-supervise n -shard-dir DIR [sweep flags]
//	cpsexp -shard-merge DIR [sweep flags] [-csv OUT]
//
// -fig all runs the paper's Figures 2–7 and -fig ext the extensions; NAME is
// one figure of the registry (2..7, baseline, deception, vectors, security,
// hardening; see experiments.Lookup). -quick shrinks grids and trial counts
// for a fast smoke run (experiments.Config.Quick); the default configuration
// reproduces the shapes reported in EXPERIMENTS.md.
//
// With -journal, every trial outcome streams to an append-only crash-safe
// journal as it settles; a run killed mid-sweep can be restarted with
// -resume to replay the journaled trials and execute only the remainder,
// producing output byte-identical to an uninterrupted run. -retries turns
// on per-trial retry with capped backoff for transient solve errors, and
// -trial-timeout arms a watchdog that flags and once requeues trials that
// exceed the per-trial deadline.
//
// The shard modes scale the same sweep across processes. -shard i/n runs
// only the trials with index ≡ i (mod n), journaling them (with a shard
// manifest and telemetry snapshot) into -shard-dir/shard-III-of-NNN; it
// prints no tables — a shard's product is its journal. -shard-supervise n
// runs all n shards as child processes of this binary under a journal-growth
// watchdog, restarting crashed or stalled shards with capped backoff (each
// restart resumes from the shard's journal) and abandoning a shard after
// -shard-restarts failures. -shard-merge DIR validates the shard
// directories (CRC + sequence continuity, torn-tail repair, no overlapping
// or missing seed ranges, matching sweep configuration), then re-renders the
// figures with every trial replayed from the merged journals — byte-identical
// to a single-process run — and writes DIR/manifest.json recording every
// shard's digests and fault history. With -debug-addr, the process also
// serves POST /shards/ingest and GET /shards/rollup so a supervised fleet's
// counters can be watched in one place; shards POST there when given
// -shard-report.
//
// -obs makes the run fully observable: a debug-level structured event
// stream (events.jsonl) is written live into the directory, span tracing is
// enabled, and at exit the directory receives metrics.json (telemetry
// snapshot), trace.json (Chrome trace_event — open in chrome://tracing or
// Perfetto), and manifest.json (seed, flags, artifact SHA-256s). cpsreport
// turns the directory into a markdown report. -log-level sets the stderr
// verbosity (debug, info, warn, error). With -screen-k K (K > 0), the
// directory also receives screen.json, the grid's depth-K N-k vulnerability
// ranking; K is also the interventions sweep's screen depth. No figure's
// adversary reads it, so the figures are the same with or without it.
//
// -metrics dumps the telemetry snapshot (solver counters and logical-work
// histograms — deterministic for a fixed seed and configuration) to a JSON
// file at sweep end; -trace additionally collects per-solve span traces and
// includes them plus the wall-clock timing histograms in the dump.
// -debug-addr serves live /metrics (JSON), /metrics/prom (Prometheus
// exposition), /debug/vars and /debug/pprof endpoints while the sweep runs.
//
// Exit codes: 0 success; 1 fatal error; 2 usage; 3 the sweep completed but
// at least one trial was abandoned after exhausting its retries (the
// failures are tolerated in the aggregates per -max-fault-rate, journaled,
// and reported as a structured error event — but the operator must know the
// data is degraded); 130 interrupted.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cpsguard/internal/atomicio"
	"cpsguard/internal/checkpoint"
	"cpsguard/internal/cli"
	"cpsguard/internal/core"
	"cpsguard/internal/experiments"
	"cpsguard/internal/faultinject"
	"cpsguard/internal/gridgen"
	"cpsguard/internal/obs"
	"cpsguard/internal/parallel"
	"cpsguard/internal/shard"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

// Exit codes (see package doc).
const (
	exitFatal           = 1
	exitUsage           = 2
	exitAbandonedTrials = 3
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all (the paper's Figures 2-7), ext (the extensions), interventions, or one of "+
		strings.Join(experiments.Names(), ", "))
	trials := flag.Int("trials", 5, "random ownership draws per point")
	seed := flag.Uint64("seed", 1, "random seed")
	mode := flag.String("mode", "graph", "noise mode: graph (faithful) or matrix (fast)")
	csvDir := flag.String("csv", "", "also write fig<N>.csv files into this directory")
	quick := flag.Bool("quick", false, "small grids for a fast smoke run")
	chart := flag.Bool("chart", false, "also render each figure as an ASCII chart")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	faultRate := flag.Float64("max-fault-rate", 0, "tolerated fraction of failed trials per point (0 = strict)")
	chaosRate := flag.Float64("chaos", 0, "fail this fraction of trials with an injected transient error (deterministic in -seed; fault-injection testing aid)")
	journal := flag.String("journal", "", "stream per-trial results to this crash-safe journal file")
	resume := flag.Bool("resume", false, "replay completed trials from the -journal file and run only the remainder")
	retries := flag.Int("retries", 0, "per-trial retries with capped backoff for transient solve errors")
	trialTimeout := flag.Duration("trial-timeout", 0, "per-trial watchdog deadline; flagged trials are requeued once (0 = off)")
	obsDir := flag.String("obs", "", "observability directory: live events.jsonl plus metrics/trace/manifest at exit (see cpsreport)")
	logLevel := flag.String("log-level", "info", "stderr log verbosity: debug, info, warn, or error")
	metricsPath := flag.String("metrics", "", "write a telemetry snapshot (JSON) to this file at sweep end")
	trace := flag.Bool("trace", false, "collect per-solve span traces and include them (plus wall-clock timings) in -metrics")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics/prom, /debug/vars, /debug/pprof and /shards/* on this address (e.g. localhost:6060)")
	gridPath := flag.String("grid", "", "grid model JSON file (default: built-in stressed westgrid)")
	screenK := flag.Int("screen-k", 0, "N-k vulnerability screening depth: with -obs, writes the grid's ranking to screen.json; also the interventions sweep's screen depth (0 = no artifact, interventions default 2)")
	interventions := flag.Bool("interventions", false, "run the defense-as-redesign sweep (equivalent to -fig interventions)")
	solveCache := flag.Int("solve-cache", 0, "share an N-entry LRU dispatch memo across all figures (0 = each figure memoizes its own dispatches); results are unchanged")
	shardSpec := flag.String("shard", "", "run only shard i/n of the sweep (0-based, e.g. 0/4), journaling into -shard-dir")
	shardDir := flag.String("shard-dir", "shards", "parent directory for per-shard journals, manifests, and snapshots")
	shardSupervise := flag.Int("shard-supervise", 0, "run the sweep as n supervised child-process shards into -shard-dir")
	shardMergeDir := flag.String("shard-merge", "", "merge the shard directories under this parent and render the combined figures")
	shardReport := flag.String("shard-report", "", "POST this shard's counter snapshots to a supervisor debug address (host:port)")
	shardStall := flag.Duration("shard-stall", 2*time.Minute, "supervisor: restart a shard whose journal stops growing for this long (0 = off)")
	shardRestarts := flag.Int("shard-restarts", 2, "supervisor: restarts per shard before abandoning it")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpsexp: %v\n", err)
		os.Exit(exitUsage)
	}
	shardMode := *shardSpec != ""
	mergeMode := *shardMergeDir != ""
	superviseMode := *shardSupervise > 0
	modes := 0
	for _, on := range []bool{shardMode, mergeMode, superviseMode} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		fmt.Fprintln(os.Stderr, "cpsexp: -shard, -shard-supervise, and -shard-merge are mutually exclusive")
		os.Exit(exitUsage)
	}
	if modes > 0 && (*journal != "" || *resume) {
		fmt.Fprintln(os.Stderr, "cpsexp: shard modes manage their own journals; drop -journal/-resume")
		os.Exit(exitUsage)
	}
	if *trace {
		telemetry.Default().EnableTracing(true)
	}
	run := cli.StartRun(cli.RunOptions{
		Tool: "cpsexp", Seed: int64(*seed), Dir: *obsDir,
		StderrLevel: lvl, Trace: *trace,
	})
	run.Manifest.CaptureFlags(flag.CommandLine)
	logger := run.Log
	fatal := func(err error) {
		logger.Error("fatal", obs.F("err", err))
		run.Close()
		os.Exit(exitFatal)
	}

	// Resolve the figures before any journal or shard directory exists, so an
	// unknown name leaves nothing behind.
	var order []experiments.Figure
	switch f, ok := experiments.Lookup(*fig); {
	case *fig == "all":
		order = experiments.Group("paper")
	case *fig == "ext":
		order = experiments.Group("ext")
	case ok:
		order = []experiments.Figure{f}
	case *fig != "interventions":
		fatal(fmt.Errorf("unknown figure %q (want all, ext, interventions, or one of %s)",
			*fig, strings.Join(experiments.Names(), ", ")))
	}
	if *interventions || *fig == "interventions" {
		if *fig == "all" {
			order = nil // shorthand: redesign sweep only
		}
		order = append(order, experiments.Figure{Name: "interventions", Run: experiments.Interventions})
	}

	// The aggregation endpoints ride the debug mux whenever it is on, so a
	// supervising cpsexp (or any process the operator points shards at)
	// doubles as the fleet's rollup server.
	agg := shard.NewAggregator()
	debugBound, stopDebug := cli.StartDebugWith(*debugAddr, logger, mountAggregator(agg))
	defer stopDebug()

	ctx, stop := cli.SignalContext(*timeout)
	defer stop()

	if superviseMode {
		reportURL := ingestURL(*shardReport)
		if reportURL == "" && debugBound != "" {
			reportURL = ingestURL(debugBound)
		}
		if err := os.MkdirAll(*shardDir, 0o755); err != nil {
			fatal(err)
		}
		// The supervise root span anchors the fleet trace: every shard.child
		// launch parents under it, and every child process links back to its
		// launch span through the inherited traceparent.
		supSpan, supCtx := telemetry.Default().StartSpanCtx(ctx,
			"shard.supervise", fmt.Sprintf("%d shards", *shardSupervise))
		report, supErr := superviseShards(supCtx, *shardSupervise, *shardDir, reportURL,
			*shardStall, *shardRestarts, *seed, logger)
		supSpan.End()
		if report != nil {
			for _, s := range report.Shards {
				logger.Info("shard supervised", obs.F("shard", s.Index),
					obs.F("done", s.Done), obs.F("restarts", s.Restarts),
					obs.F("stalls", s.Stalls), obs.F("err", s.Err))
			}
		}
		if supErr != nil {
			cli.ExitCanceled(ctx, supErr, "shard supervision interrupted")
			fatal(supErr)
		}
		logger.Info("all shards completed", obs.F("shards", *shardSupervise),
			obs.F("dir", *shardDir))
		cli.MustPrintf("supervised %d shards into %s; merge with: cpsexp -shard-merge %s [same sweep flags]\n",
			*shardSupervise, *shardDir, *shardDir)
		cli.WriteMetrics(*metricsPath, *trace, logger)
		if err := run.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "cpsexp: %v\n", err)
			os.Exit(exitFatal)
		}
		return
	}

	faultLog := &experiments.FaultLog{}
	var chaosHook func(string) error
	if *chaosRate > 0 {
		chaosHook = faultinject.New(*seed).Arm("experiments.trial", faultinject.Error, *chaosRate).Hook
		logger.Warn("chaos armed", obs.F("rate", *chaosRate), obs.F("seed", *seed))
	}
	cache := solvecache.New(*solveCache)
	cfg := experiments.Config{
		Trials:   *trials,
		Seed:     *seed,
		Parallel: parallel.Options{Context: ctx, Log: logger},
		Faults:   experiments.FaultPolicy{MaxFailureRate: *faultRate, Hook: chaosHook, Log: faultLog},
		Log:      logger,
		Cache:    cache,
		ScreenK:  *screenK,
	}
	// grid is the effective system whether or not -grid was given, so the
	// interventions digest and the screen.json artifact always describe the
	// graph the sweep actually ran on.
	grid, err := cli.LoadModel(*gridPath, true)
	if err != nil {
		fatal(err)
	}
	if *gridPath != "" {
		cfg.Graph = grid
		run.AddInput(*gridPath)
	}
	if *interventions {
		// The candidate menu depends on the grid file's *content*, which no
		// flag captures — bake its digest into the sweep key so shards and
		// merges over different menus can never be mixed.
		sweepKeyExtra["interventions-digest"] = gridgen.InterventionSetDigest(cfg.InterventionMenu())
	}
	defer func() {
		if st := cache.Stats(); st.Capacity > 0 {
			logger.Info("solve cache",
				obs.F("hits", st.Hits), obs.F("misses", st.Misses),
				obs.F("evictions", st.Evictions), obs.F("size", st.Size),
				obs.F("capacity", st.Capacity))
		}
	}()

	var sr *shardRun
	var mergeRes *shard.MergeResult
	switch {
	case shardMode:
		sr, err = prepareShardRun(*shardSpec, *shardDir, *seed, *retries,
			*trialTimeout, ingestURL(*shardReport), logger)
		if err != nil {
			fatal(err)
		}
		cfg.Sweep = sr.Sweep
		cfg.Shard = &sr.Assignment
	case mergeMode:
		var sweep *checkpoint.Sweep
		sweep, mergeRes, err = mergeShards(*shardMergeDir, logger)
		if err != nil {
			fatal(err)
		}
		sweep.Retry = checkpoint.Retrier{MaxRetries: *retries, Seed: *seed, Log: logger}
		cfg.Sweep = sweep
	default:
		if *resume && *journal == "" {
			fatal(fmt.Errorf("-resume requires -journal"))
		}
		if *journal != "" || *retries > 0 || *trialTimeout > 0 {
			sweep := &checkpoint.Sweep{
				Retry:    checkpoint.Retrier{MaxRetries: *retries, Seed: *seed, Log: logger},
				Watchdog: checkpoint.Watchdog{Deadline: *trialTimeout},
				Log:      logger,
			}
			if *journal != "" {
				var j *checkpoint.Journal
				var rep *checkpoint.Replay
				var err error
				if *resume {
					run.AddInput(*journal)
					j, rep, err = checkpoint.Resume(*journal, checkpoint.Options{})
					if err != nil {
						fatal(err)
					}
					if rep.TruncatedBytes > 0 {
						logger.Warn("journal tail truncated",
							obs.F("journal", *journal), obs.F("bytes", rep.TruncatedBytes))
					}
					logger.Info("resuming from journal",
						obs.F("journal", *journal), obs.F("completed_trials", rep.Len()))
					run.Manifest.Note("resumed %d trials from %s", rep.Len(), *journal)
				} else {
					j, err = checkpoint.Create(*journal, checkpoint.Options{})
					if err != nil {
						fatal(err)
					}
				}
				defer j.Close()
				sweep.Journal = j
				sweep.Replay = rep
			}
			cfg.Sweep = sweep
		}
	}
	if *mode == "matrix" {
		cfg.NoiseMode = core.MatrixNoise
	}
	if *quick {
		cfg = cfg.Quick()
	}

	var csvOutputs []string
	for fi, f := range order {
		start := time.Now()
		tb, err := f.Run(cfg)
		if err != nil {
			if sr != nil {
				sr.finish(false, err, 0)
			}
			cli.ExitCanceled(ctx, err,
				fmt.Sprintf("%d/%d figures completed (interrupted in fig %s)", fi, len(order), f.Name))
			fatal(fmt.Errorf("fig %s: %w", f.Name, err))
		}
		if sr != nil {
			continue // a shard's product is its journal, not tables
		}
		cli.MustPrintf("%s\n(%.1fs)\n\n", tb.Render(), time.Since(start).Seconds())
		if *chart {
			cli.MustPrintln(tb.Chart(72, 18))
		}
		if *csvDir != "" {
			// Atomic write into a directory created on demand: a killed
			// run can never leave a half-written CSV.
			path := filepath.Join(*csvDir, "fig"+f.Name+".csv")
			data := []byte(tb.CSV())
			if err := atomicio.MkdirAllAndWrite(path, data, 0o644); err != nil {
				fatal(err)
			}
			csvOutputs = append(csvOutputs, path)
			run.AddOutput(path)
			logger.Info("wrote csv", obs.F("path", path), obs.F("bytes", len(data)),
				obs.F("crc32", fmt.Sprintf("%08x", tb.Checksum())))
		}
	}
	// With screening on, persist the grid's vulnerability ranking next to the
	// run's other artifacts so cpsreport can render it.
	if *screenK > 0 && *obsDir != "" && sr == nil {
		data, err := screenArtifact(grid, *screenK, *seed, cache)
		if err != nil {
			fatal(fmt.Errorf("screen artifact: %w", err))
		}
		path := filepath.Join(*obsDir, "screen.json")
		if err := atomicio.MkdirAllAndWrite(path, data, 0o644); err != nil {
			fatal(err)
		}
		run.AddOutput(path)
		logger.Info("wrote screen ranking", obs.F("path", path), obs.F("k", *screenK))
	}
	if sweep := cfg.Sweep; sweep != nil && sweep.Journal != nil {
		logger.Info("journal summary", obs.F("journal", sweep.Journal.Path()),
			obs.F("executed", sweep.Executed()), obs.F("replayed", sweep.Replayed()),
			obs.F("seq", sweep.Journal.Seq()))
		if sr == nil {
			run.AddOutput(sweep.Journal.Path())
		}
	}
	// Fault-tolerance summary: one structured event per failed-but-tolerated
	// trial, plus an aggregate. Tolerated failures keep the sweep going but
	// degrade the data, so they turn the exit code non-zero below.
	abandoned := len(faultLog.Failures())
	if fails := faultLog.Failures(); len(fails) > 0 {
		for _, f := range fails {
			logger.Warn("tolerated trial failure", obs.F("point", f.Point),
				obs.F("trial_index", f.Trial), obs.F("err", f.Err))
		}
		logger.Error("trials abandoned after retries", obs.F("abandoned", abandoned),
			obs.F("trials", faultLog.Trials()), obs.F("rate", faultLog.FailureRate()),
			obs.F("exit_code", exitAbandonedTrials))
	}
	if sr != nil {
		if err := sr.finish(true, nil, abandoned); err != nil {
			fatal(err)
		}
	}
	if mergeRes != nil {
		logger.Info("merge verified", obs.F("shards", mergeRes.Count),
			obs.F("trials_replayed", cfg.Sweep.Replayed()))
		if err := writeMergedManifest(*shardMergeDir, mergeRes, *seed, csvOutputs); err != nil {
			fatal(err)
		}
		logger.Info("wrote merged manifest",
			obs.F("path", filepath.Join(*shardMergeDir, "manifest.json")))
	}
	cli.WriteMetrics(*metricsPath, *trace, logger)
	if *metricsPath != "" {
		run.AddOutput(*metricsPath)
	}
	if err := run.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "cpsexp: %v\n", err)
		os.Exit(exitFatal)
	}
	if abandoned > 0 {
		os.Exit(exitAbandonedTrials)
	}
}
