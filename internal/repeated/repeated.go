// Package repeated plays the adversary-vs-defenders game over multiple
// rounds, extending the paper's one-shot formulation in the direction its
// Section II-F4 sketches: "traditional dependability models can be
// augmented with probability of failures that include security-oriented
// attack probabilities."
//
// Each round, defenders estimate the attack distribution from *observed
// history* (exponentially-smoothed attack frequencies — fictitious play)
// instead of from a speculative model of the adversary, invest, and then
// the adversary attacks. The adversary may optionally observe which assets
// were defended last round and avoid them (an adaptive attacker). The
// trajectory shows whether the empirical learning loop converges to the
// one-shot model-based defense of the paper, and how much an adaptive
// attacker erodes it.
package repeated

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"cpsguard/internal/adversary"
	"cpsguard/internal/core"
	"cpsguard/internal/defense"
	"cpsguard/internal/obs"
	"cpsguard/internal/rng"
	"cpsguard/internal/telemetry"
)

// Config parameterizes a repeated game.
type Config struct {
	// Rounds is the number of iterations (≥ 1).
	Rounds int
	// AttackBudget is the SA's per-round budget MA.
	AttackBudget float64
	// DefenseBudgetPerActor is each defender's per-round budget MD(a).
	DefenseBudgetPerActor float64
	// Smoothing is the exponential smoothing factor α for the defenders'
	// empirical attack frequencies: Pa ← (1−α)·Pa + α·observed.
	// Default 0.3.
	Smoothing float64
	// AttackerSigma is the adversary's per-round knowledge noise; fresh
	// noise is drawn every round (reconnaissance is re-done).
	AttackerSigma float64
	// AdaptiveAttacker makes the SA avoid assets it saw defended in the
	// previous round (it treats their success probability as zero).
	AdaptiveAttacker bool
	// Collaborative selects cost-shared defense.
	Collaborative bool
	// Seed drives all randomness.
	Seed uint64
	// Ctx, when non-nil, cancels the trajectory between rounds (and
	// in-flight adversary searches); Play returns the context error with
	// the rounds completed so far in Result.
	Ctx context.Context
	// ContinueOnError makes a failed round count and log instead of
	// aborting the trajectory; the round is excluded from totals.
	// Cancellation is never absorbed.
	ContinueOnError bool
	// Hook is an optional fault-injection checkpoint invoked at site
	// "repeated.round" before each round.
	Hook func(site string) error
	// ResumeRounds seeds the trajectory with rounds already played — e.g.
	// replayed from a checkpoint journal after a crash. They are folded
	// into the result totals and the defenders' learning state exactly as
	// if they had just been played, and play continues at round
	// len(ResumeRounds). Because each round's randomness derives from
	// (Seed, round), the resumed trajectory is identical to an
	// uninterrupted one.
	ResumeRounds []Round
	// OnRound, when non-nil, is invoked after each newly played round
	// settles (not for ResumeRounds) — wire it to a checkpoint journal to
	// stream the trajectory to disk as it grows.
	OnRound func(round int, r Round)
	// Log, when non-nil, records each played round (debug) and each
	// failed round (warn) as structured events.
	Log *obs.Logger
}

func (c Config) smoothing() float64 {
	if c.Smoothing > 0 {
		return c.Smoothing
	}
	return 0.3
}

// Round is one settled iteration.
type Round struct {
	// Attacked is the SA's target set this round.
	Attacked []string
	// Defended is the union of protected assets this round.
	Defended map[string]bool
	// AdversaryProfit is the SA's realized ground-truth profit.
	AdversaryProfit float64
	// Averted is the profit the defense removed versus no defense.
	Averted float64
}

// Result is a full trajectory.
type Result struct {
	Rounds []Round
	// TotalAdversaryProfit sums realized profit over all rounds.
	TotalAdversaryProfit float64
	// TotalAverted sums averted damage over all rounds.
	TotalAverted float64
	// FailedRounds counts rounds skipped under Config.ContinueOnError.
	FailedRounds int
	// RoundErrors records the error of each failed round, keyed by round
	// index (nil when no round failed).
	RoundErrors map[int]error
}

// ErrBadConfig reports an invalid configuration.
var ErrBadConfig = errors.New("repeated: invalid config")

// Play runs the repeated game on a scenario.
func Play(s *core.Scenario, cfg Config) (*Result, error) {
	if s == nil || cfg.Rounds < 1 {
		return nil, fmt.Errorf("%w: nil scenario or rounds < 1", ErrBadConfig)
	}
	truth, err := s.Truth()
	if err != nil {
		return nil, err
	}
	mGames.Inc()
	targets := s.Targets
	costs := defense.UniformCosts(truth.Targets, 1)

	// Defenders' empirical attack distribution, learned online.
	pa := map[string]float64{}
	var prevDefended map[string]bool

	res := &Result{}
	alpha := cfg.smoothing()

	log := cfg.Log.WithStage("repeated")
	// fail records a failed round under ContinueOnError, or aborts.
	fail := func(round int, err error) error {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err // cancellation always aborts
		}
		if !cfg.ContinueOnError {
			return fmt.Errorf("repeated: round %d: %w", round, err)
		}
		res.FailedRounds++
		mRoundsFailed.Inc()
		if res.RoundErrors == nil {
			res.RoundErrors = map[int]error{}
		}
		res.RoundErrors[round] = err
		log.Warn("round failed, continuing", obs.F("round", round), obs.F("err", err))
		return nil
	}

	// playOne runs one round; panics are recovered into errors so a
	// single bad round can be skipped under ContinueOnError. ctx carries
	// the round's trace span (when tracing is on) in addition to
	// cancellation.
	playOne := func(ctx context.Context, round int, pa map[string]float64, prevDefended map[string]bool) (r Round, err error) {
		defer func() {
			if rec := recover(); rec != nil {
				err = fmt.Errorf("repeated: round %d panicked: %v", round, rec)
			}
		}()
		// --- Defenders invest based on history.
		defended, _, err := defense.Invest(truth, s.Ownership, pa, costs,
			cfg.DefenseBudgetPerActor, cfg.Collaborative)
		if err != nil {
			return Round{}, err
		}

		// --- Adversary reconnoiters and attacks.
		view := truth
		if cfg.AttackerSigma > 0 {
			view = truth.Perturbed(cfg.AttackerSigma, rng.Derive(cfg.Seed^0x9E9, uint64(round)))
		}
		atkTargets := targets
		if cfg.AdaptiveAttacker && prevDefended != nil {
			atkTargets = make([]adversary.Target, 0, len(targets))
			for _, t := range targets {
				if prevDefended[t.ID] {
					t.SuccessProb = 0 // known-hardened: not worth hitting
				}
				atkTargets = append(atkTargets, t)
			}
		}
		plan, perr := adversary.Solve(adversary.Config{
			Matrix: view, Targets: atkTargets, Budget: cfg.AttackBudget,
			Ctx: ctx,
		})
		if perr != nil {
			return Round{}, perr
		}

		// --- Settle.
		undef := adversary.Evaluate(plan, truth, targets, adversary.EvaluateOptions{})
		got := adversary.Evaluate(plan, truth, targets,
			adversary.EvaluateOptions{Defended: defended})
		return Round{
			Attacked:        plan.Targets,
			Defended:        defended,
			AdversaryProfit: got,
			Averted:         undef - got,
		}, nil
	}

	// settle folds one played (or replayed) round into the totals and the
	// defenders' learning state.
	settle := func(r Round) {
		res.Rounds = append(res.Rounds, r)
		res.TotalAdversaryProfit += r.AdversaryProfit
		res.TotalAverted += r.Averted

		for _, t := range truth.Targets {
			obs := 0.0
			if slices.Contains(r.Attacked, t) {
				obs = 1
			}
			pa[t] = (1-alpha)*pa[t] + alpha*obs
		}
		prevDefended = r.Defended
	}

	// Replay resumed rounds into the learning state before playing on.
	start := min(len(cfg.ResumeRounds), cfg.Rounds)
	for _, r := range cfg.ResumeRounds[:start] {
		mRoundsReplayed.Inc()
		settle(r)
	}

	for round := start; round < cfg.Rounds; round++ {
		if cfg.Ctx != nil {
			if err := cfg.Ctx.Err(); err != nil {
				return res, err
			}
		}
		if cfg.Hook != nil {
			if err := cfg.Hook("repeated.round"); err != nil {
				if aerr := fail(round, err); aerr != nil {
					return res, aerr
				}
				continue // skipped round: no learning update
			}
		}
		sp, rctx := telemetry.Default().StartSpanCtx(cfg.Ctx, "repeated.round", fmt.Sprintf("r%d", round))
		r, err := playOne(rctx, round, pa, prevDefended)
		sp.End()
		if err != nil {
			if aerr := fail(round, err); aerr != nil {
				return res, aerr
			}
			continue
		}
		mRounds.Inc()
		settle(r)
		log.Debug("round played", obs.F("round", round),
			obs.F("profit", r.AdversaryProfit), obs.F("averted", r.Averted),
			obs.F("attacked", len(r.Attacked)), obs.F("defended", len(r.Defended)))
		if cfg.OnRound != nil {
			cfg.OnRound(round, r)
		}
	}
	return res, nil
}
