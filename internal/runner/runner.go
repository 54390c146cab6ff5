// Package runner is the concurrency engine behind the experiment and
// litmus harnesses. Every simulation in this repository is a pure
// function of (config, workload, seed) — DESIGN.md §6 — so independent
// simulations can fan out across goroutines freely. The package provides
// the two primitives that make that safe and fast:
//
//   - ForEach, a bounded worker pool that executes indexed jobs and lets
//     the caller assemble results by index, so output order is
//     deterministic regardless of completion order; and
//   - Memo, a single-flight memo cache keyed by canonical strings, so a
//     (workload, class, variant, options) combination that several
//     figures share is simulated exactly once.
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"wbsim/internal/faults"
)

// DefaultParallel is the worker count used when a caller passes a
// non-positive parallelism: one worker per available CPU.
func DefaultParallel() int { return runtime.GOMAXPROCS(0) }

// ForEach runs fn(ctx, i) for every i in [0, n) on at most parallel
// workers. fn must write its result into a caller-owned slot for index i;
// because slots are indexed, the caller's assembly order is deterministic
// no matter in which order jobs finish.
//
// The first failure cancels ctx so outstanding jobs can stop early, and
// jobs not yet started are skipped. When several jobs fail before
// cancellation takes effect, the error of the lowest index is returned —
// the same one a sequential loop would have surfaced.
//
// Each worker carries a recover boundary: a panic inside fn is converted
// to a *faults.SimError (DESIGN.md §8) and reported as that job's
// failure, so one poisoned simulation cannot kill the process running
// its siblings. The panicking worker retires; the rest drain normally
// after the cancellation.
func ForEach(ctx context.Context, parallel, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return nil
	}
	if parallel <= 0 {
		parallel = DefaultParallel()
	}
	if parallel > n {
		parallel = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		firstIdx int
		wg       sync.WaitGroup
	)
	next.Store(-1)
	firstIdx = n // sentinel: larger than any real index

	fail := func(i int, err error) {
		mu.Lock()
		if i < firstIdx {
			firstIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}

	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cur := -1 // index of the job currently executing, for panic attribution
			defer func() {
				if r := recover(); r != nil && cur >= 0 {
					fail(cur, faults.PanicError(r, nil))
				}
			}()
			for {
				// The cancellation check precedes the claim, and a claimed
				// job always runs: claimed indices therefore form a
				// contiguous prefix of [0, n), and since every cancellation
				// originates from a claimed job, the lowest-index failure —
				// the one a sequential loop would surface — is always among
				// the jobs that ran.
				if ctx.Err() != nil {
					return
				}
				cur = int(next.Add(1))
				if cur >= n {
					return
				}
				if err := fn(ctx, cur); err != nil {
					fail(cur, err)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Memo is a concurrency-safe single-flight memo cache for pure
// computations keyed by canonical strings. The first caller of a key
// computes; concurrent callers of the same key wait for that computation
// instead of duplicating it; later callers get the cached value. Errors
// are never cached: callers already in flight on a failing key observe
// its error once, but the entry is dropped before completing, so the
// next caller recomputes. A failed or panicked job (hangs, contained
// panics, resource exhaustion) must not poison the cache for the rest
// of a campaign — especially one that retries with different budgets.
type Memo[V any] struct {
	mu      sync.Mutex
	entries map[string]*memoEntry[V]
	jobs    atomic.Uint64 // computations actually executed
	hits    atomic.Uint64 // calls served from cache or an in-flight run
}

type memoEntry[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewMemo returns an empty cache.
func NewMemo[V any]() *Memo[V] {
	return &Memo[V]{entries: make(map[string]*memoEntry[V])}
}

// Do returns the memoized result for key, computing it with fn on first
// use. fn runs outside the cache lock, so long computations for distinct
// keys proceed concurrently.
func (m *Memo[V]) Do(key string, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if e, ok := m.entries[key]; ok {
		m.mu.Unlock()
		m.hits.Add(1)
		<-e.done
		return e.val, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.entries[key] = e
	m.mu.Unlock()

	m.jobs.Add(1)
	e.val, e.err = fn()
	if e.err != nil {
		// Drop the entry before releasing waiters: no future Do call may
		// be served a cached failure.
		m.mu.Lock()
		if m.entries[key] == e {
			delete(m.entries, key)
		}
		m.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}

// Stats reports how many computations ran and how many calls were served
// without recomputing.
func (m *Memo[V]) Stats() (jobs, hits uint64) {
	return m.jobs.Load(), m.hits.Load()
}
