// Package parallel provides the worker-pool primitives used to fan
// Monte-Carlo trials (random ownership draws × noise draws) across CPU
// cores. Results are written into order-preserving slices so parallel runs
// are bit-identical to sequential ones.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cpsguard/internal/obs"
	"cpsguard/internal/telemetry"
)

// DefaultWorkers is the worker count used when Options.Workers is zero:
// GOMAXPROCS at call time.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Options configures a parallel map.
type Options struct {
	// Workers is the number of concurrent workers (default GOMAXPROCS).
	Workers int
	// Context cancels outstanding work early (default background).
	Context context.Context
	// OnSettle, when non-nil, is invoked by MapSettle from the worker
	// goroutine as each executed task settles — before the full result
	// slices are returned — so callers can stream results to durable
	// storage or progress logs while later tasks are still running. It
	// must be safe for concurrent invocation. Tasks skipped because the
	// context fired before they were scheduled are not reported.
	OnSettle func(i int, err error)
	// Log, when non-nil, records pool lifecycle (start/drain, with worker
	// and task counts) as debug events.
	Log *obs.Logger
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return DefaultWorkers()
}

func (o Options) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// Map runs fn(i) for i in [0,n) across a worker pool and returns the results
// in index order. The first error cancels remaining work and is returned
// (results computed so far are still returned). fn must be safe for
// concurrent invocation; panics inside fn are converted to errors.
func Map[T any](n int, opts Options, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	if n == 0 {
		return results, nil
	}
	ctx, cancel := context.WithCancel(opts.ctx())
	defer cancel()

	workers := opts.workers()
	if workers > n {
		workers = n
	}

	reg := telemetry.Default()
	mPools.Inc()
	mWorkers.Add(int64(workers))
	poolStart := reg.Now()
	defer func() { tPool.Observe(reg.Now().Sub(poolStart).Nanoseconds()) }()
	// enqueued[i] is written by the feeder before sending i; the channel send
	// is the happens-before edge that publishes it to the receiving worker.
	enqueued := make([]time.Time, n)

	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
			cancel()
		}
		mu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := reg.Now()
				tQueueWait.Observe(start.Sub(enqueued[i]).Nanoseconds())
				mTasks.Inc()
				func() {
					defer func() {
						if r := recover(); r != nil {
							mTaskPanics.Inc()
							setErr(fmt.Errorf("parallel: task %d panicked: %v", i, r))
						}
					}()
					v, err := fn(i)
					if err != nil {
						mTaskErrors.Inc()
						setErr(fmt.Errorf("parallel: task %d: %w", i, err))
						return
					}
					results[i] = v
				}()
				tTask.Observe(reg.Now().Sub(start).Nanoseconds())
			}
		}()
	}

	sent := 0
feed:
	for i := 0; i < n; i++ {
		enqueued[i] = reg.Now()
		select {
		case idx <- i:
			sent++
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	mSkipped.Add(int64(n - sent))

	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err == nil && opts.ctx().Err() != nil {
		err = opts.ctx().Err()
	}
	return results, err
}

// MapSettle runs fn(ctx, i) for i in [0,n) across a worker pool without the
// fail-fast semantics of Map: one task's error (or panic, converted to an
// error) does not cancel its siblings. Results and per-index errors are
// returned in index order — errs[i] is non-nil iff task i failed — so
// callers can count, log, and exclude failed trials instead of aborting a
// whole Monte-Carlo run.
//
// The passed ctx is the pool's context: fn should thread it into solver
// options so cancellation stops in-flight solves. When the context is
// canceled, unscheduled tasks are skipped (their errs entry is the context
// error) and the context error is also returned as ctxErr.
func MapSettle[T any](n int, opts Options, fn func(ctx context.Context, i int) (T, error)) (results []T, errs []error, ctxErr error) {
	results = make([]T, n)
	errs = make([]error, n)
	if n == 0 {
		return results, errs, opts.ctx().Err()
	}
	ctx := opts.ctx()

	workers := opts.workers()
	if workers > n {
		workers = n
	}

	reg := telemetry.Default()
	mPools.Inc()
	mWorkers.Add(int64(workers))
	opts.Log.Debug("pool started", obs.F("workers", workers), obs.F("tasks", n))
	poolStart := reg.Now()
	defer func() {
		tPool.Observe(reg.Now().Sub(poolStart).Nanoseconds())
		opts.Log.Debug("pool drained", obs.F("tasks", n))
	}()
	// enqueued[i] is written by the feeder before sending i; the channel send
	// publishes it to the receiving worker.
	enqueued := make([]time.Time, n)

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := reg.Now()
				tQueueWait.Observe(start.Sub(enqueued[i]).Nanoseconds())
				mTasks.Inc()
				func() {
					defer func() {
						if r := recover(); r != nil {
							mTaskPanics.Inc()
							errs[i] = fmt.Errorf("parallel: task %d panicked: %v", i, r)
						}
					}()
					v, err := fn(ctx, i)
					if err != nil {
						mTaskErrors.Inc()
						errs[i] = err
						return
					}
					results[i] = v
				}()
				tTask.Observe(reg.Now().Sub(start).Nanoseconds())
				if opts.OnSettle != nil {
					opts.OnSettle(i, errs[i])
				}
			}
		}()
	}

	next := 0
feed:
	for ; next < n; next++ {
		enqueued[next] = reg.Now()
		select {
		case idx <- next:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	mSkipped.Add(int64(n - next))

	if err := ctx.Err(); err != nil {
		for i := next; i < n; i++ {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return results, errs, err
	}
	return results, errs, nil
}

// ForEach is Map without per-task results.
func ForEach(n int, opts Options, fn func(i int) error) error {
	_, err := Map(n, opts, func(i int) (struct{}, error) {
		return struct{}{}, fn(i)
	})
	return err
}
