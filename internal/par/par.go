// Package par is the deterministic host-parallel execution layer of the
// reproduction: a bounded worker pool that spreads independent work items
// across host cores while guaranteeing that results are byte-identical to
// a sequential run.
//
// The simulator draws a hard line between two kinds of parallelism:
//
//   - Virtual-time parallelism — the paper's §4.2.5 "parallel translation"
//     optimization — is *modeled* by hw.ParallelElapsed*: it decides how
//     much simulated time a phase costs and is controlled per-transplant
//     by core.Options.Parallel.
//   - Wall-clock parallelism — this package — decides how fast the Go
//     process itself executes and never influences simulated time.
//
// The pool sits at the outermost fan-out only: a scheduler batch of
// independent host operations and the experiment sweep points. A pool
// task never opens a pool; everything beneath it is a plain loop (the
// root census test holds the importers to an allowlist).
//
// Determinism contract: Map assigns work by index, stores results by
// index, and reports the lowest-index error, so any observable output is
// independent of the worker count and of goroutine scheduling. Callers
// must keep per-item work free of cross-item side effects.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workers is the configured pool width; 0 means GOMAXPROCS. It is the
// process-wide knob behind the CLIs' -workers flag.
var workers atomic.Int64

// SetWorkers sets the pool width used by Map. n <= 0 restores the
// default (GOMAXPROCS at call time).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers returns the current pool width.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// Map applies fn to every item of items on the worker pool and returns
// the results in item order. fn receives the item index and the item.
// All items are attempted even after a failure; the returned error is the
// one with the lowest index, so error behaviour is deterministic too.
func Map[T, R any](items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	n := len(items)
	out := make([]R, n)
	errs := make([]error, n)
	w := min(Workers(), n)
	if w <= 1 {
		for i, item := range items {
			out[i], errs[i] = fn(i, item)
		}
	} else {
		// Items are coarse (a host operation, a sweep point), so workers
		// claim them one at a time.
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(w)
		for g := 0; g < w; g++ {
			go func() {
				defer wg.Done()
				for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
					out[i], errs[i] = fn(i, items[i])
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
