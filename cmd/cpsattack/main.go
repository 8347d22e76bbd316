// Command cpsattack runs the strategic adversary (Section II-E) against an
// energy model: it computes the impact matrix under the adversary's
// (optionally noisy) view, solves the target/actor selection exactly, and
// reports the anticipated and ground-truth realized profits. With
// -screen-k K it first prints the grid's depth-K N-k vulnerability ranking;
// the adversary search does not read it.
//
// Usage:
//
//	cpsattack [-model model.json] [-actors N] [-seed S] [-sigma σ]
//	          [-budget MA] [-catk c] [-ps p] [-screen-k K]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cpsguard/internal/adversary"
	"cpsguard/internal/cli"
	"cpsguard/internal/core"
	"cpsguard/internal/impact"
	"cpsguard/internal/obs"
	"cpsguard/internal/parallel"
	"cpsguard/internal/rng"
	"cpsguard/internal/screen"
	"cpsguard/internal/solvecache"
)

func main() {
	model := flag.String("model", "", "model JSON file (default: built-in stressed westgrid)")
	nActors := flag.Int("actors", 6, "number of random actors")
	seed := flag.Uint64("seed", 1, "random seed (ownership + noise)")
	sigma := flag.Float64("sigma", 0, "adversary knowledge noise σ")
	budget := flag.Float64("budget", 6, "attack budget MA")
	catk := flag.Float64("catk", 1, "uniform attack cost per target")
	ps := flag.Float64("ps", 1, "uniform attack success probability")
	mode := flag.String("mode", "graph", "noise mode: graph (faithful) or matrix (fast)")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics/prom, /debug/vars and /debug/pprof on this address")
	solveCache := flag.Int("solve-cache", 0, "memoize dispatch solves in an N-entry LRU cache (0 = off); results are unchanged")
	screenK := flag.Int("screen-k", 0, "N-k vulnerability screening depth: prints the worst contingencies (0 = off; the plan is the same either way)")
	flag.Parse()

	logger := obs.New("cpsattack", obs.Sink{W: os.Stderr, Format: obs.Text, Min: obs.LevelInfo})
	fatal := func(err error) {
		logger.Error("fatal", obs.F("err", err))
		os.Exit(1)
	}

	stopDebug := cli.StartDebug(*debugAddr, logger)
	defer stopDebug()

	ctx, stop := cli.SignalContext(*timeout)
	defer stop()

	g, err := cli.LoadModel(*model, true)
	if err != nil {
		fatal(err)
	}
	s := core.NewScenario(g, *nActors, *seed)
	s.Parallel = parallel.Options{Context: ctx, Log: logger}
	s.Targets = adversary.UniformTargets(g.AssetIDs(), *catk, *ps)
	s.Cache = solvecache.New(*solveCache)
	defer func() {
		if st := s.Cache.Stats(); st.Capacity > 0 {
			logger.Info("solve cache",
				obs.F("hits", st.Hits), obs.F("misses", st.Misses),
				obs.F("evictions", st.Evictions), obs.F("size", st.Size))
		}
	}()

	nm, err := cli.ParseNoiseMode(*mode)
	if err != nil {
		fatal(err)
	}

	truth, err := s.Truth()
	if err != nil {
		cli.ExitCanceled(ctx, err, "interrupted while computing the ground-truth impact matrix")
		fatal(err)
	}
	var rank *screen.Ranking
	if *screenK > 0 {
		rank, err = screen.Run(screen.Config{
			Analysis: &impact.Analysis{Graph: g, Ownership: s.Ownership, Parallel: s.Parallel, Cache: s.Cache},
			Targets:  g.AssetIDs(), K: *screenK,
		})
		if err != nil {
			cli.ExitCanceled(ctx, err, "ground-truth matrix done; interrupted during the vulnerability screen")
			fatal(fmt.Errorf("vulnerability screen: %w", err))
		}
	}
	view, err := s.View(*sigma, nm, rng.Derive(*seed, 1))
	if err != nil {
		cli.ExitCanceled(ctx, err, "ground-truth matrix done; interrupted while computing the adversary view")
		fatal(err)
	}
	plan, err := adversary.Solve(adversary.Config{
		Matrix: view, Targets: s.Targets, Budget: *budget,
		Ctx: ctx,
	})
	if err != nil {
		cli.ExitCanceled(ctx, err, "impact matrices done; interrupted during the target-selection search")
		fatal(err)
	}
	realized := adversary.Evaluate(plan, truth, s.Targets, adversary.EvaluateOptions{})

	cli.MustPrintf("system: %s\n", g)
	cli.MustPrintf("actors: %d (seed %d)   adversary noise σ=%.2f (%s mode)\n", *nActors, *seed, *sigma, nm)
	cli.MustPrintf("budget: %.1f at cost %.1f per target (max %d targets)\n\n", *budget, *catk, int(*budget / *catk))
	if rank != nil {
		certified := 0
		for _, ts := range rank.Targets {
			if ts.CertifiedZero {
				certified++
			}
		}
		cli.MustPrintf("vulnerability screen (N-%d): %d evaluated, %d pruned, %d/%d targets certified harmless\n",
			rank.K, rank.Evaluated, rank.Pruned, certified, len(rank.Targets))
		top := rank.Top
		if len(top) > 5 {
			top = top[:5]
		}
		for i, c := range top {
			cli.MustPrintf("  worst #%d  %-40s  welfare impact %10.2f\n",
				i+1, strings.Join(c.Targets, " + "), c.Delta)
		}
		cli.MustPrintln("")
	}
	cli.MustPrintf("chosen targets (%d):\n", len(plan.Targets))
	for _, t := range plan.Targets {
		dw := truth.WelfareDelta[truth.Col(t)]
		cli.MustPrintf("  %-18s  system welfare impact %10.2f\n", t, dw)
	}
	cli.MustPrintf("\ncaptured actors (%d): %v\n", len(plan.Actors), plan.Actors)
	cli.MustPrintf("\nanticipated profit: %12.2f\n", plan.Anticipated)
	cli.MustPrintf("realized profit:    %12.2f   (ground truth)\n", realized)
	if plan.Anticipated > 0 {
		cli.MustPrintf("realization ratio:  %12.1f%%\n", 100*realized/plan.Anticipated)
	}
	if !plan.Proven {
		cli.MustPrintf("(search node limit hit; plan is best-found, not proven optimal; gap ≤ %.2f)\n", plan.Gap)
	}
}
