// Package runpool fans independent simulation sessions out across worker
// goroutines while keeping the fleet's output byte-identical to a serial
// run, and keeps the simulation states workers reuse (Free).
//
// The determinism contract (see docs/PERFORMANCE.md, "The runpool and
// shard determinism contract"):
//
//   - Jobs are independent: each builds its own netsim.Engine, its own
//     player state, and any randomness from a per-job seed
//     (rand.New(rand.NewSource(seed))). Nothing mutable is shared, and no
//     job reads the wall clock — the vetabr simclock analyzer enforces
//     that for this package like any other simulation package.
//   - Results are collected in submission order, not completion order:
//     Map(workers, n, job) returns exactly what the serial loop
//     `for i := 0; i < n; i++ { out[i] = job(i) }` would, regardless of
//     worker count or scheduling.
//   - workers == 1 runs that serial loop literally, so `-parallel 1`
//     recovers the exact pre-fan-out behaviour, including stopping at the
//     first error.
package runpool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count flag: values above zero are used as
// given; zero or negative means "one worker per available CPU"
// (GOMAXPROCS), the default for every -parallel flag in the repo.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs job(0..n-1) on up to workers goroutines and returns the results
// indexed by job, i.e. in submission order. On error it returns nil and
// the error from the lowest-numbered failing job — the same error a serial
// loop would have stopped at (later jobs may or may not have run; their
// results are discarded). A panicking job is re-panicked on the calling
// goroutine.
func Map[T any](workers, n int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers = Workers(workers); workers > n {
		workers = n
	}
	if workers == 1 {
		// The literal serial loop: no goroutines, stop at first error.
		out := make([]T, n)
		for i := 0; i < n; i++ {
			v, err := job(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	out := make([]T, n)
	errs := make([]error, n)
	var (
		next    atomic.Int64 // next job index to claim
		failed  atomic.Bool  // set on first error; stops claiming new jobs
		wg      sync.WaitGroup
		panicMu sync.Mutex
		panics  []any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					panics = append(panics, r)
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				v, err := job(i)
				if err != nil {
					errs[i] = err
					failed.Store(true)
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	if len(panics) > 0 {
		panic(panics[0])
	}
	if failed.Load() {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// Collect is Map for infallible jobs: same worker fan-out, same
// submission-order collection, no error plumbing.
func Collect[T any](workers, n int, job func(i int) T) []T {
	out, _ := Map(workers, n, func(i int) (T, error) { return job(i), nil })
	return out
}

// Free is a stack of the states no worker is using, safe for concurrent
// use. A worker takes the state put last, so it finds a warm one whenever
// one is free; the stack never holds more than the most workers that have
// held a state at once. The zero Free is empty and ready to use.
type Free[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Take pops the state put last, or returns nil when none is free.
func (f *Free[T]) Take() (v *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k := len(f.free); k > 0 {
		v, f.free[k-1] = f.free[k-1], nil
		f.free = f.free[:k-1]
	}
	return v
}

// Put pushes v, for a later Take.
func (f *Free[T]) Put(v *T) {
	f.mu.Lock()
	f.free = append(f.free, v)
	f.mu.Unlock()
}

// Drain empties the stack and returns what it held, the state put last
// at the end.
func (f *Free[T]) Drain() (free []*T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	free, f.free = f.free, nil
	return free
}
