// Package parallel is the repository's bounded work-sharing executor for
// intra-program parallelism. The analyses that fan out here (per-variable
// DFG flow fragments, candidate-word ranges of the batched bit-vector
// solvers) produce results that are joined deterministically afterwards, so
// the executor's only jobs are to bound the goroutine count, to share work
// between uneven items (an atomic cursor, not static striping — fragment
// costs vary by orders of magnitude), and to give each worker a stable
// identity so per-worker arenas can be reused across items without locks.
//
// Everything here degrades to a plain loop at workers <= 1: callers rely on
// that for the GOMAXPROCS==1 fallback rule (no goroutines, no new
// allocations, bit-identical behavior to the pre-parallel code paths).
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean GOMAXPROCS.
// The result is never larger than GOMAXPROCS — oversubscribing an analysis
// that is CPU-bound end to end only adds scheduling noise.
func Workers(n int) int {
	max := runtime.GOMAXPROCS(0)
	if n <= 0 || n > max {
		return max
	}
	return n
}

// Do runs fn(worker, item) for every item in [0, items), on at most
// workers goroutines. Items are handed out through a shared atomic cursor
// (work sharing): a worker that finishes a cheap item immediately takes the
// next one, so skewed item costs still balance. The worker index passed to
// fn is stable within a call and dense in [0, workers'), where workers' =
// min(workers, items) — index per-worker arenas with it.
//
// fn must not panic across items it wants completed: a panic on any worker
// propagates to the caller (re-raised on Do's goroutine) after the other
// workers drain, so the process sees the original failure, not a deadlock.
//
// At workers <= 1 (or items <= 1) Do runs everything inline on the calling
// goroutine with worker index 0 and spawns nothing.
func Do(items, workers int, fn func(worker, item int)) {
	if items <= 0 {
		return
	}
	if workers > items {
		workers = items
	}
	if workers <= 1 {
		for i := 0; i < items; i++ {
			fn(0, i)
		}
		return
	}

	var cursor atomic.Int64
	var panicked atomic.Value // first panic value, re-raised below
	var wg sync.WaitGroup
	next := func() int { return int(cursor.Add(1)) - 1 }
	// run executes item i on worker w, then keeps taking items from the
	// cursor until it is exhausted.
	run := func(w, i int) {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, recovered{r})
				// Poison the cursor so the remaining workers stop taking
				// items and the caller sees the failure promptly.
				cursor.Store(int64(items))
			}
		}()
		for ; i < items; i = next() {
			fn(w, i)
		}
	}
	// The caller participates as worker 0: at workers==n, n-1 goroutines
	// are spawned, and a Do from an already-parallel context does not
	// leave its own thread idle. Item 0 is reserved for it before any
	// goroutine starts, so the caller always does work even when the
	// spawned workers could drain cheap items first.
	cursor.Store(1)
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go func(w int) { run(w, next()) }(w)
	}
	run(0, 0)
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(r.(recovered).v)
	}
}

// recovered wraps a recovered panic value for atomic.Value (which rejects
// inconsistently-typed raw values).
type recovered struct{ v any }

// Arenas is a lock-free set of per-worker scratch arenas for use under Do:
// index it with the worker id Do passes to fn. Slots are created on first
// use by the New function and kept for the lifetime of the Arenas value, so
// a caller that runs many Do rounds (the EPR transformation loop, a batch
// of programs) pays each worker's allocation once.
//
// Get is safe for concurrent use by distinct workers because each worker
// touches only its own slot; Grow must be called (single-goroutine) before
// the Do that needs the capacity.
type Arenas[T any] struct {
	New   func() T
	slots []T
	made  []bool
}

// Grow ensures capacity for workers slots. Call before Do, not from inside.
func (a *Arenas[T]) Grow(workers int) {
	for len(a.slots) < workers {
		var zero T
		a.slots = append(a.slots, zero)
		a.made = append(a.made, false)
	}
}

// Get returns worker w's arena, creating it on first use.
func (a *Arenas[T]) Get(w int) T {
	if !a.made[w] {
		a.slots[w] = a.New()
		a.made[w] = true
	}
	return a.slots[w]
}
