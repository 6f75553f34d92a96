// Package sweep is a parallel execution engine for the repo's two
// sweep-shaped workloads: the §IV-C design-space exploration (fanning
// dse candidate masks across a worker pool with a deterministic reduce)
// and the experiment grids (camera count, temporal depth, NoP
// bandwidth, mesh size, Lcstr tolerance — each scenario an independent
// unit of work). Workers are bounded, honor context cancellation, and
// never outlive the call that spawned them.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"mcmnpu/internal/costmodel"
)

// Engine is a bounded worker pool. The zero value is not useful; use
// New. An Engine carries no per-call state — only its parallelism and a
// shared layer-cost cache — and is safe for concurrent use.
type Engine struct {
	workers int
	cache   *costmodel.Cache
}

// New returns an engine with the given parallelism; workers <= 0 means
// runtime.NumCPU(). The engine owns a layer-cost cache shared by
// everything it runs — the DSE explorations (Explore/ExploreSpace/
// TableI) and every scenario of a sharded grid (RunGridSharded) — so
// repeated (layer, accel) evaluations across candidate masks, Lcstr
// points and grid points are memoized once per engine, with no
// cross-engine contention on a package-global store.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return &Engine{workers: workers, cache: costmodel.NewCache()}
}

// Workers returns the engine's parallelism.
func (e *Engine) Workers() int { return e.workers }

// Cache returns the engine's shared layer-cost cache (never nil for
// engines built by New).
func (e *Engine) Cache() *costmodel.Cache { return e.cache }

// Each runs fn(i) for every i in [0, n) across the engine's workers.
// Indices are dispatched through a channel, so long and short items
// interleave without static partitioning skew. The first error (or the
// context's error, checked before each item) cancels the remaining
// work; already-running items finish. A panicking fn does not take the
// process down: the worker recovers it into a *PanicError, which
// cancels the remaining work like any other error. Each blocks until
// all workers have returned.
//
// n <= 0 is an empty run, not an error: it returns nil on a live
// context. A cancelled context still surfaces its error — callers use
// Each as their cancellation check, even with no work.
//
//perf:hot — the worker-pool dispatch loop every parallel evaluation rides on
func (e *Engine) Each(ctx context.Context, n int, fn func(i int) error) error {
	if n <= 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		return nil
	}
	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	workers := e.workers
	if workers > n {
		workers = n
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		cancel()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				// The parent is checked too: its cancellation closes its
				// Done channel before it reaches ctx, and in that gap an
				// item waiting on the parent would let the next ones start.
				err := parent.Err()
				if err == nil {
					err = ctx.Err()
				}
				if err != nil {
					fail(err)
					return
				}
				if err := call(fn, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// PanicError is the error Each returns for an item whose fn panicked:
// the item index, the recovered value and the panicking goroutine's
// stack. Error() carries only the index and value: the message reaches
// API clients and cached results, so the stack stays on Stack.
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("sweep: item %d panicked: %v", e.Index, e.Value)
}

// call runs fn(i), converting a panic into a *PanicError.
func call(fn func(i int) error, i int) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Index: i, Value: v, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) and collects the results in
// index order. A cancelled or failed run returns the partial slice
// (unfilled entries are zero values) alongside the error.
func Map[T any](ctx context.Context, e *Engine, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := e.Each(ctx, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
