// Failure semantics of the solve pipeline: structured errors, cancellation
// checkpoints, and fault-injection hooks shared by every simplex
// implementation. See DESIGN.md "Failure semantics".
package lp

import (
	"context"
	"errors"
	"fmt"
)

// SolveError is the structured error taxonomy of the solve pipeline. Every
// failure escaping a solver carries the problem name, the stage that failed,
// the last known status, and the iteration count at failure, so that a
// single bad solve inside a million-trial Monte-Carlo run is attributable.
// An LP solve returns one only when a Hook stops it or a panic is recovered;
// a well-formed problem solved without a hook always returns a Solution
// whose Status carries the outcome.
type SolveError struct {
	// Problem is the Problem.Name of the failing problem (may be empty).
	Problem string
	// Stage names where the failure occurred: "lp.enter", "lp.pivot"
	// (hook errors), "pivot-loop" (recovered panic), "milp.node".
	Stage string
	// Status is the last status observed before the failure.
	Status Status
	// Iterations counts pivots (or nodes, for MILP stages) performed
	// before the failure.
	Iterations int
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *SolveError) Error() string {
	name := e.Problem
	if name == "" {
		name = "<unnamed>"
	}
	return fmt.Sprintf("solve %s: stage %s (status %v, %d iterations): %v",
		name, e.Stage, e.Status, e.Iterations, e.Err)
}

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *SolveError) Unwrap() error { return e.Err }

// Hook is a fault-injection / instrumentation checkpoint. When set on
// Options, the solver invokes it at named sites ("lp.enter", "lp.pivot").
// A returned error aborts the solve: errors wrapping
// context.Canceled or context.DeadlineExceeded surface as the matching
// cancellation Status; any other error is wrapped in a *SolveError. A
// panicking hook exercises the solver's panic recovery (the panic is
// converted to a *SolveError too).
type Hook func(site string) error

// statusAborted is the internal marker for "a hook asked the solve to stop
// with an error" (never escapes the package: run() converts it).
const statusAborted Status = -1

// guard bundles the cancellation context and fault-injection hook checked
// every CheckEvery pivots by both simplex implementations.
type guard struct {
	ctx   context.Context
	hook  Hook
	every int
	err   error // first non-context hook error
}

func newGuard(opts Options) *guard {
	return &guard{ctx: opts.Ctx, hook: opts.Hook, every: opts.checkEvery()}
}

// due reports whether a checkpoint is due at this iteration count.
func (g *guard) due(iters int) bool {
	return (g.ctx != nil || g.hook != nil) && iters%g.every == 0
}

// at runs the checkpoint at a named site. It returns (status, true) when the
// solve must stop: Canceled / DeadlineExceeded for context-style aborts, or
// statusAborted with g.err set for hook errors.
func (g *guard) at(site string) (Status, bool) {
	if g.ctx != nil {
		if err := g.ctx.Err(); err != nil {
			return cancelStatus(err), true
		}
	}
	if g.hook != nil {
		if err := g.hook(site); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return cancelStatus(err), true
			}
			g.err = err
			return statusAborted, true
		}
	}
	return Optimal, false
}

// cancelStatus maps a context error to the corresponding Status.
func cancelStatus(err error) Status {
	if errors.Is(err, context.DeadlineExceeded) {
		return DeadlineExceeded
	}
	return Canceled
}

// IsCancellation reports whether st is one of the cancellation statuses.
func IsCancellation(st Status) bool {
	return st == Canceled || st == DeadlineExceeded
}
