// Command cpsservd serves scenario analyses over HTTP, backed by a
// content-addressed on-disk result store: identical scenario configurations
// are solved once and served from the store afterward (integrity-verified
// on every read), concurrent duplicates coalesce onto one in-flight run,
// and the solver pool is protected by a bounded admission queue, per-request
// deadlines, capped-backoff retries, and a per-scenario circuit breaker.
//
// Usage:
//
//	cpsservd -store DIR [-addr :8780] [-workers N] [-queue N]
//	         [-deadline D] [-max-deadline D] [-retries N]
//	         [-breaker-fails N] [-breaker-cooldown D]
//	         [-solve-cache N] [-run-workers N]
//	         [-drain-timeout D] [-chaos RATE] [-trace]
//	         [-debug-addr ADDR] [-log-level LEVEL]
//
// Endpoints:
//
//	POST /scenarios                  submit a scenario (JSON body; ?wait=1 blocks)
//	GET  /scenarios                  list committed results
//	GET  /runs/{id}                  run status + artifact digests
//	GET  /runs/{id}/artifacts/{name} download one artifact (digest-checked)
//	GET  /runs/{id}/events           live JSONL event stream
//	GET  /healthz, /readyz           liveness / readiness
//
// On SIGINT/SIGTERM the server drains: it stops admitting work (503
// draining, /readyz unready), lets in-flight runs finish and commit (up to
// -drain-timeout, then cancels them — uncommitted scenarios are simply
// recomputed on resubmit), fsyncs the store index, and exits. Startup runs
// store recovery: crash debris under inflight/ is removed and committed
// entries that fail integrity verification are quarantined, never served.
//
// -chaos injects deterministic transient faults into the trial layer (the
// same site as cpsexp -chaos) for resilience testing through the HTTP path.
//
// Exit codes: 0 clean shutdown; 1 fatal error; 2 usage; 130 interrupted
// before the listener was up.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"cpsguard/internal/cli"
	"cpsguard/internal/faultinject"
	"cpsguard/internal/obs"
	"cpsguard/internal/servd"
	"cpsguard/internal/solvecache"
	"cpsguard/internal/telemetry"
)

const (
	exitFatal = 1
	exitUsage = 2
)

func main() {
	addr := flag.String("addr", "localhost:8780", "listen address for the scenario API")
	storeDir := flag.String("store", "", "result store directory (required)")
	workers := flag.Int("workers", 2, "concurrent scenario runs")
	queueDepth := flag.Int("queue", 8, "admission queue depth; beyond it submits get 429")
	deadline := flag.Duration("deadline", 5*time.Minute, "default per-run deadline (0 = none)")
	maxDeadline := flag.Duration("max-deadline", 10*time.Minute, "cap on request-supplied deadline_ms")
	retries := flag.Int("retries", 1, "per-run retries with capped backoff for transient failures")
	breakerFails := flag.Int("breaker-fails", 3, "consecutive failures that open a scenario's circuit")
	breakerCooldown := flag.Duration("breaker-cooldown", 15*time.Second, "open-circuit cooldown before a probe is admitted")
	solveCache := flag.Int("solve-cache", 4096, "shared N-entry LRU dispatch memo across all requests (0 = each figure run memoizes its own dispatches)")
	runWorkers := flag.Int("run-workers", 0, "trial fan-out inside each run (0 = GOMAXPROCS)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "graceful-drain budget on SIGTERM before in-flight runs are canceled")
	chaosRate := flag.Float64("chaos", 0, "fail this fraction of trials with an injected transient error (resilience testing)")
	chaosSeed := flag.Uint64("chaos-seed", 1, "seed for -chaos fault injection")
	traceFlag := flag.Bool("trace", false, "record request/run spans and emit Traceparent response headers")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics/prom, /debug/vars, /debug/pprof on this address")
	logLevel := flag.String("log-level", "info", "stderr log verbosity: debug, info, warn, or error")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cpsservd: %v\n", err)
		os.Exit(exitUsage)
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "cpsservd: -store DIR is required")
		os.Exit(exitUsage)
	}
	logger := obs.New("cpsservd", obs.Sink{W: os.Stderr, Format: obs.Text, Min: lvl})

	telemetry.Default().SetLabel("cpsservd")
	if *traceFlag {
		telemetry.Default().EnableTracing(true)
		telemetry.Default().SetSpanCapacity(cli.RunSpanCapacity)
	}
	// A tracing supervisor hands its trace context down through the
	// environment; adopting it makes this server's request spans part of the
	// caller's fleet trace even without a local -trace.
	if tc, ok := telemetry.TraceContextFromEnv(); ok {
		telemetry.Default().SetTraceContext(tc)
		telemetry.Default().EnableTracing(true)
		telemetry.Default().SetSpanCapacity(cli.RunSpanCapacity)
	}

	store, rep, err := servd.Open(*storeDir)
	if err != nil {
		logger.Error("store open failed", obs.F("dir", *storeDir), obs.F("err", err))
		os.Exit(exitFatal)
	}
	logger.Info("store recovered", obs.F("dir", *storeDir),
		obs.F("entries", rep.Entries), obs.F("quarantined", len(rep.Quarantined)),
		obs.F("removed_inflight", rep.RemovedInflight))
	for _, key := range rep.Quarantined {
		logger.Warn("entry quarantined at startup", obs.F("key", key))
	}

	var chaosHook func(string) error
	if *chaosRate > 0 {
		chaosHook = faultinject.New(*chaosSeed).Arm("experiments.trial", faultinject.Error, *chaosRate).Hook
		logger.Warn("chaos armed", obs.F("rate", *chaosRate), obs.F("seed", *chaosSeed))
	}
	runner := &servd.ExperimentRunner{
		Cache:       solvecache.New(*solveCache),
		Hook:        chaosHook,
		StderrLevel: obs.LevelWarn,
		Workers:     *runWorkers,
	}
	srv, err := servd.New(servd.Options{
		Store: store, Runner: runner,
		Workers: *workers, QueueDepth: *queueDepth,
		DefaultDeadline: *deadline, MaxDeadline: *maxDeadline,
		Retries: *retries, BreakerThreshold: *breakerFails,
		BreakerCooldown: *breakerCooldown, Log: logger,
	})
	if err != nil {
		logger.Error("server init failed", obs.F("err", err))
		os.Exit(exitFatal)
	}

	stopDebug := cli.StartDebug(*debugAddr, logger)
	defer stopDebug()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", obs.F("addr", *addr), obs.F("err", err))
		os.Exit(exitFatal)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// The smoke test (and operators scripting against :0) parse this line.
	cli.MustPrintf("cpsservd listening on http://%s store=%s workers=%d queue=%d\n",
		ln.Addr(), *storeDir, *workers, *queueDepth)
	logger.Info("serving", obs.F("addr", ln.Addr().String()),
		obs.F("workers", *workers), obs.F("queue", *queueDepth))

	ctx, stop := cli.SignalContext(0)
	defer stop()
	select {
	case <-ctx.Done():
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", obs.F("err", err))
			os.Exit(exitFatal)
		}
	}

	// Graceful drain: stop admitting, finish in-flight runs, sync the index,
	// then close the listener.
	logger.Info("signal received; draining", obs.F("budget", drainTimeout.String()))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	httpSrv.Shutdown(shutCtx)
	if drainErr != nil {
		logger.Warn("drain incomplete", obs.F("err", drainErr))
		os.Exit(exitFatal)
	}
	logger.Info("drained cleanly")
}
