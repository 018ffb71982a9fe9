// Package parallel provides the bounded worker-pool fan-out primitive the
// simulation's sweeps are built on: the calibration sweeps (PVT and oracle
// PMT construction over module populations) and the sweep engines (Table
// 4's rows, the evaluation grid's (benchmark, constraint, scheme) cells,
// the resilience, overprovisioning and hetero cells, sched's jobs) are all
// embarrassingly parallel because every module draws from its own
// SplitMix64 stream (internal/xrand). A measured run (measure.Run) is not
// a sweep: it resolves and accounts its ranks serially, and its
// concurrency comes from the sweep that runs it.
//
// The engine therefore guarantees determinism: for a pure task function,
// Map and ForEachCtx produce results — including which error is reported —
// that are byte-identical for every worker count. Three properties make
// this hold:
//
//  1. Results are written to the slot of their own index; no output depends
//     on completion order.
//  2. Workers claim indices in ascending order from a shared counter, so
//     when any task fails, every lower index has already been claimed and
//     will run to completion — the error reported is always the one with
//     the lowest failing index, exactly what a serial loop would return.
//  3. Reductions over the results are performed by the caller in index
//     order after the fan-out, never concurrently.
//
// Panics inside a task are captured on the worker goroutine and re-raised
// on the caller's goroutine (lowest index wins), so a crashing task behaves
// like a crashing serial loop instead of killing the process from an
// anonymous goroutine.
//
// The engine's per-task overhead is an index claim and a local tally: it
// reads no clock and takes no lock per task. Its only metric is
// varpower_parallel_tasks_total, which each worker adds to once, when it
// exits. The sweep stages time their own tasks with spans (grid.cell,
// grid.model, table4.row, hetero.cell); per-module tasks are not timed one
// by one.
package parallel

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"varpower/internal/telemetry"
)

// mTasks counts the tasks that ran, errored and panicked ones included.
var mTasks = telemetry.Default().Counter("varpower_parallel_tasks_total",
	"Tasks executed by the parallel fan-out engine.", nil)

// progressKey carries a ProgressFunc through a context.
type progressKey struct{}

// ProgressFunc receives completion updates during a fan-out: done tasks
// out of total. It is called after every task completion — successful or
// not — from whichever goroutine finished the task, so implementations
// must be safe for concurrent use (an atomic print is enough). Progress is
// presentation-only: it cannot influence task scheduling or results.
type ProgressFunc func(done, total int)

// WithProgress attaches a progress callback to ctx; MapCtx/ForEachCtx
// invocations under that context report per-task completion to it. Nested
// fan-outs inherit the context, so attach progress only at the granularity
// you want reported (e.g. grid cells, not per-module inner loops) — or strip
// it with WithProgress(ctx, nil).
func WithProgress(ctx context.Context, fn ProgressFunc) context.Context {
	return context.WithValue(ctx, progressKey{}, fn)
}

// progressFrom extracts the callback, nil when absent.
func progressFrom(ctx context.Context) ProgressFunc {
	fn, _ := ctx.Value(progressKey{}).(ProgressFunc)
	return fn
}

// Workers resolves a requested worker count: values < 1 select
// runtime.GOMAXPROCS(0) (the default everywhere in this repository), and the
// result is clamped to n so no idle goroutines are spawned for small jobs.
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError wraps a panic captured from a task goroutine. It is re-raised
// by Map/ForEachCtx on the calling goroutine with the original value and the
// worker's stack trace attached.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error.
func (p *PanicError) Error() string {
	return fmt.Sprintf("parallel: task %d panicked: %v\n%s", p.Index, p.Value, p.Stack)
}

// indexed pairs an outcome with the task index that produced it, so the
// caller can deterministically prefer the lowest index.
type indexed struct {
	index int
	err   error
	panic *PanicError
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers < 1 selects GOMAXPROCS) and returns the results in index order.
// On failure it returns the error of the lowest failing index — the same
// error a serial loop would have returned — and the partial results slice
// is discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, func(_ context.Context, i int) (T, error) {
		return fn(i)
	})
}

// MapCtx is Map with context cancellation: workers stop claiming new
// indices once ctx is cancelled, and ctx.Err() is returned if no task error
// precedes it. In-flight tasks run to completion (tasks are not preempted).
func MapCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n < 0 {
		return nil, fmt.Errorf("parallel: negative task count %d", n)
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	progress := progressFrom(ctx)
	var done atomic.Int64
	finish := func() {
		if progress != nil {
			progress(int(done.Add(1)), n)
		}
	}
	workers = Workers(workers, n)
	if workers == 1 {
		// Serial fast path: no goroutines, no synchronisation — exactly
		// today's loop, used by -workers=1 and single-task jobs.
		ran := 0
		defer func() { mTasks.Add(float64(ran)) }()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			ran++
			v, err := fn(ctx, i)
			finish()
			if err != nil {
				return nil, fmt.Errorf("parallel: task %d: %w", i, err)
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64 // next index to claim
		stopped  atomic.Bool  // set on first failure: stop claiming new work
		mu       sync.Mutex
		failures []indexed
		wg       sync.WaitGroup
	)
	record := func(rec indexed) {
		mu.Lock()
		failures = append(failures, rec)
		mu.Unlock()
		stopped.Store(true)
	}
	worker := func() {
		defer wg.Done()
		ran := 0
		defer func() { mTasks.Add(float64(ran)) }()
		for {
			if stopped.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			ran++
			func() {
				defer finish()
				defer func() {
					if r := recover(); r != nil {
						// debug.Stack grows its buffer to fit, so deep
						// task stacks are never truncated the way a
						// fixed-size runtime.Stack buffer would be.
						record(indexed{index: i, panic: &PanicError{Index: i, Value: r, Stack: debug.Stack()}})
					}
				}()
				v, err := fn(ctx, i)
				if err != nil {
					record(indexed{index: i, err: err})
					return
				}
				out[i] = v
			}()
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	wg.Wait()

	if len(failures) > 0 {
		first := failures[0]
		for _, f := range failures[1:] {
			if f.index < first.index {
				first = f
			}
		}
		if first.panic != nil {
			panic(first.panic)
		}
		return nil, fmt.Errorf("parallel: task %d: %w", first.index, first.err)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ForEachCtx runs fn(ctx, i) for every i in [0, n) on at most workers
// goroutines and returns the error of the lowest failing index, if any, or
// ctx's error once it is cancelled.
func ForEachCtx(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	_, err := MapCtx(ctx, workers, n, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}
