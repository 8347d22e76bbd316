// Command cpsflow dispatches an energy model to its social-welfare optimum
// and prints flows, nodal prices and (optionally) per-actor profits.
//
// Usage:
//
//	cpsflow [-model model.json] [-stress] [-actors N] [-seed S]
//
// Without -model the built-in six-state western-US model is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"cpsguard/internal/actors"
	"cpsguard/internal/cli"
	"cpsguard/internal/flow"
	"cpsguard/internal/lp"
	"cpsguard/internal/obs"
	"cpsguard/internal/rng"
)

func main() {
	model := flag.String("model", "", "model JSON file (default: built-in westgrid)")
	stress := flag.Bool("stress", true, "stress the built-in model (ignored with -model)")
	nActors := flag.Int("actors", 0, "divide profits among N random actors (0 = skip)")
	seed := flag.Uint64("seed", 1, "ownership random seed")
	timeout := flag.Duration("timeout", 0, "abort after this duration (0 = no limit)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /metrics/prom, /debug/vars and /debug/pprof on this address")
	flag.Parse()

	logger := obs.New("cpsflow", obs.Sink{W: os.Stderr, Format: obs.Text, Min: obs.LevelInfo})
	fatal := func(err error) {
		logger.Error("fatal", obs.F("err", err))
		os.Exit(1)
	}

	stopDebug := cli.StartDebug(*debugAddr, logger)
	defer stopDebug()

	ctx, stop := cli.SignalContext(*timeout)
	defer stop()

	g, err := cli.LoadModel(*model, *stress)
	if err != nil {
		fatal(err)
	}
	r, err := flow.DispatchOpts(g, flow.Options{LP: lp.Options{Ctx: ctx}})
	if err != nil {
		cli.ExitCanceled(ctx, err, "dispatch interrupted; no flows to report")
		fatal(err)
	}

	cli.MustPrintln(g)
	cli.MustPrintf("social welfare: %.2f  demand served: %.1f / %.1f  (LP pivots: %d)\n\n",
		r.Welfare, r.Served(), g.TotalDemand(), r.Iterations)

	cli.MustPrintln("nodal prices (λ):")
	ids := make([]string, 0, len(g.Vertices))
	for _, v := range g.Vertices {
		ids = append(ids, v.ID)
	}
	sort.Strings(ids)
	for _, id := range ids {
		cli.MustPrintf("  %-20s %8.2f\n", id, r.Price[g.VertexIndex(id)])
	}

	cli.MustPrintln("\nnonzero flows:")
	eids := g.AssetIDs()
	for _, id := range eids {
		j := g.EdgeIndex(id)
		if f := r.Flow[j]; f > 1e-9 {
			e := &g.Edges[j]
			rent := r.CapacityRent[j]
			mark := ""
			if rent > 1e-9 {
				mark = fmt.Sprintf("   (congested, rent %.2f)", rent)
			}
			cli.MustPrintf("  %-18s %8.1f / %-8.1f%s\n", id, f, e.Capacity, mark)
		}
	}

	if *nActors > 0 {
		o := actors.RandomOwnership(g, *nActors, rng.New(*seed))
		p, err := actors.Divide(actors.LMPDivision{}, g, r, o)
		if err != nil {
			fatal(err)
		}
		cli.MustPrintf("\nper-actor profits (%d actors, seed %d):\n", *nActors, *seed)
		as := p
		names := make([]string, 0, len(as))
		for a := range as {
			names = append(names, a)
		}
		sort.Strings(names)
		for _, a := range names {
			cli.MustPrintf("  %-8s %12.2f  (%d assets)\n", a, as[a], len(o.Assets(a)))
		}
		cli.MustPrintf("  %-8s %12.2f  (= welfare)\n", "total", p.Total())
	}
}
