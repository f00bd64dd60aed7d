// Package exec is the bounded, context-aware execution engine underlying all
// parallel algorithms in this module. A Pool owns a fixed budget of reusable
// worker goroutines and exposes the one fork/join primitive of Table I of
// Yu & Shun (ICDE 2023) that the pipeline runs in parallel — the parallel
// for loop, per block (ForBlocked) or per index (ForGrain) — as a
// cooperative, cancellable operation: it takes a context.Context, checks it
// at chunk boundaries, and returns ctx.Err() promptly once the context is
// cancelled.
//
// Concurrency model. A Pool of size w runs at most w chunks of one logical
// operation at a time: w−1 persistent helper goroutines plus the calling
// goroutine, which always participates. Chunks are handed to helpers with a
// non-blocking send; when every helper is busy (including when operations
// nest, or when two requests share one pool) the caller runs the chunk
// inline, so no operation ever blocks waiting for a worker and nested
// parallelism cannot deadlock. Two concurrent requests therefore cannot
// oversubscribe the machine beyond the sum of their pool budgets.
//
// Cancellation model. Cancellation is cooperative and chunk-grained: a chunk
// that has started runs to completion, but no new chunk starts once the
// context is cancelled, and the operation returns ctx.Err(). Callers must
// treat any non-nil error as fatal for the output (slices may be partially
// written).
package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// minGrain is the smallest chunk of work handed to a worker. Loops shorter
// than this run sequentially to avoid scheduling overhead.
const minGrain = 512

// Pool is a bounded set of reusable worker goroutines. The zero value is not
// usable; create pools with New. A Pool is safe for concurrent use by
// multiple goroutines and may be shared across requests; sharing divides the
// worker budget rather than multiplying goroutines.
type Pool struct {
	workers int
	tasks   chan func()
	quit    chan struct{}
	once    sync.Once
}

// New creates a pool with the given worker budget. workers ≤ 0 selects
// runtime.GOMAXPROCS(0). A pool of size 1 runs every operation sequentially
// on the calling goroutine (and spawns nothing). Call Close when a
// per-request pool is no longer needed; the shared Default pool is never
// closed.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.tasks = make(chan func())
		p.quit = make(chan struct{})
		for i := 0; i < workers-1; i++ {
			go p.work()
		}
	}
	return p
}

var (
	defMu sync.Mutex
	def   *Pool
)

// Default returns the shared process-wide pool, sized to the current
// GOMAXPROCS. If GOMAXPROCS changed since the last call (benchmark harnesses
// sweep it), the pool is transparently rebuilt; operations in flight on the
// old pool finish correctly by falling back to inline execution.
func Default() *Pool {
	defMu.Lock()
	defer defMu.Unlock()
	w := runtime.GOMAXPROCS(0)
	if def == nil || def.workers != w {
		if def != nil {
			def.Close()
		}
		def = New(w)
	}
	return def
}

// Workers reports the pool's worker budget (the maximum number of chunks of
// one operation that run concurrently).
func (p *Pool) Workers() int { return p.workers }

// Close releases the pool's helper goroutines. Operations submitted after
// Close still complete, degrading to inline (sequential) execution. Close is
// idempotent.
func (p *Pool) Close() {
	if p.quit != nil {
		p.once.Do(func() { close(p.quit) })
	}
}

// work is the helper goroutine loop.
func (p *Pool) work() {
	for {
		select {
		case f := <-p.tasks:
			f()
		case <-p.quit:
			return
		}
	}
}

// trySubmit hands f to an idle helper, reporting whether one accepted it.
// The send is non-blocking: it succeeds only when a helper is parked on the
// task channel, so the caller can always fall back to running f inline.
func (p *Pool) trySubmit(f func()) bool {
	if p.tasks == nil {
		return false
	}
	select {
	case p.tasks <- f:
		return true
	default:
		return false
	}
}

// ForGrain runs f(i) for every i in [0, n), over the blocks that
// ForBlocked forms for the same n and grain. A grain of 1 forces maximal
// parallelism (up to eight chunks per worker, however small n is), which is
// useful when each iteration is itself expensive; grain ≤ 0 selects the
// automatic grain.
func (p *Pool) ForGrain(ctx context.Context, n, grain int, f func(i int)) error {
	return p.ForBlocked(ctx, n, grain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			f(i)
		}
	})
}

// ForBlocked partitions [0, n) into contiguous blocks and runs f(lo, hi) on
// each block in parallel, checking the context between blocks. grain ≤ 0
// selects an automatic grain.
func (p *Pool) ForBlocked(ctx context.Context, n, grain int, f func(lo, hi int)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	if grain <= 0 {
		grain = minGrain
	}
	if n <= grain {
		f(0, n)
		return nil
	}
	if p.workers == 1 {
		for lo := 0; lo < n; lo += grain {
			if err := ctx.Err(); err != nil {
				return err
			}
			hi := lo + grain
			if hi > n {
				hi = n
			}
			f(lo, hi)
		}
		return nil
	}
	nchunks := (n + grain - 1) / grain
	// Cap chunk count at 8 chunks per worker: enough for load balancing
	// without excessive scheduling churn.
	if maxChunks := 8 * p.workers; nchunks > maxChunks {
		nchunks = maxChunks
	}
	chunk := (n + nchunks - 1) / nchunks
	// Chunks are claimed from a shared atomic cursor rather than submitted
	// as one closure each: a fixed number of worker loops (the caller plus
	// up to workers−1 helpers) pull chunk indices until none remain. This
	// keeps every parallel-for at O(1) allocations regardless of chunk
	// count and load-balances uneven chunks dynamically.
	var next atomic.Int64
	var cancelled atomic.Bool
	work := func() {
		for {
			if cancelled.Load() {
				return
			}
			if ctx.Err() != nil {
				cancelled.Store(true)
				return
			}
			k := int(next.Add(1)) - 1
			lo := k * chunk
			if lo >= n {
				return
			}
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			f(lo, hi)
		}
	}
	var wg sync.WaitGroup
	task := func() {
		defer wg.Done()
		work()
	}
	helpers := p.workers - 1
	if helpers > nchunks-1 {
		helpers = nchunks - 1
	}
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		if !p.trySubmit(task) {
			// Every helper is busy (nested or concurrent operations): run
			// the remaining chunks on the calling goroutine alone.
			wg.Done()
			break
		}
	}
	work()
	wg.Wait()
	return ctx.Err()
}
