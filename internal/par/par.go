// Package par is the deterministic fan-out utility behind the parallel
// experiment harness: a bounded worker pool that runs n independent
// indexed tasks, collects their results in task order, propagates the
// first error, and honours context cancellation.
//
// Determinism contract: Map(ctx, procs, n, f) returns out with
// out[i] = f(ctx, i) for every i, regardless of procs and of the order
// in which workers happen to finish. A caller whose tasks are themselves
// deterministic (e.g. each derives its own seeded RNG) therefore gets
// byte-identical results at procs = 1 and procs = N; the only thing
// concurrency may change is wall-clock time.
package par

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// Procs normalises a worker-count setting: values <= 0 mean "one worker
// per available CPU" (runtime.GOMAXPROCS(0)).
func Procs(procs int) int {
	if procs > 0 {
		return procs
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs f(ctx, i) for every i in [0, n) on at most procs concurrent
// workers and returns the results indexed by task. procs <= 0 selects
// runtime.GOMAXPROCS(0); procs == 1 executes the tasks sequentially in
// index order on the calling goroutine, which is the serial reference
// path.
//
// On failure the pool stops claiming new tasks, waits for in-flight
// tasks, and returns the error of the lowest-indexed failed task (so the
// reported error is as deterministic as the tasks themselves). Tasks
// skipped because of an earlier failure or a cancelled ctx are never
// started; their slots hold the zero value.
func Map[T any](ctx context.Context, procs, n int, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	procs = Procs(procs)
	if procs > n {
		procs = n
	}

	if procs == 1 {
		// Serial reference path: no goroutines, strict index order.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			v, err := f(ctx, i)
			if err != nil {
				return out, err
			}
			out[i] = v
		}
		return out, nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || ctx.Err() != nil {
					return
				}
				v, err := f(ctx, i)
				if err != nil {
					errs[i] = err
					cancel() // stop claiming further tasks
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()

	// Lowest-indexed task failure wins; a bare cancellation of the parent
	// context (no task error anywhere) surfaces as ctx.Err().
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			return out, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, ctx.Err()
}
