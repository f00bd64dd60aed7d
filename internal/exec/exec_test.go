package exec

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForCoversAllIndices: For, and ForBlocked at the maximal-parallelism
// grain 1, each visit every index exactly once.
func TestForCoversAllIndices(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		for _, n := range []int{0, 1, 7, 511, 512, 513, 10000} {
			seen := make([]int32, n)
			if err := p.For(context.Background(), n, func(i int) { atomic.AddInt32(&seen[i], 1) }); err != nil {
				t.Fatal(err)
			}
			err := p.ForBlocked(context.Background(), n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&seen[i], 1)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range seen {
				if c != 2 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times by For+ForBlocked, want 2", workers, n, i, c)
				}
			}
		}
		p.Close()
	}
}

// TestForBlockedPartition: ForBlocked splits [0, n) into non-empty,
// in-range blocks whose sizes add up to n.
func TestForBlockedPartition(t *testing.T) {
	const n = 99999
	for _, workers := range []int{1, 4} {
		p := New(workers)
		for _, grain := range []int{1, 100} {
			var total atomic.Int64
			err := p.ForBlocked(context.Background(), n, grain, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d grain=%d: bad block [%d,%d)", workers, grain, lo, hi)
				}
				total.Add(int64(hi - lo))
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := total.Load(); got != n {
				t.Fatalf("workers=%d grain=%d: blocks cover %d of %d indices", workers, grain, got, n)
			}
		}
		p.Close()
	}
}

// TestPoolBoundsConcurrency verifies the worker budget: an operation on a
// pool of size w never runs more than w chunks at once, even with maximal
// chunking (grain 1).
func TestPoolBoundsConcurrency(t *testing.T) {
	const workers = 3
	p := New(workers)
	defer p.Close()
	var cur, peak atomic.Int32
	err := p.ForGrain(context.Background(), 256, 1, func(i int) {
		c := cur.Add(1)
		for {
			old := peak.Load()
			if c <= old || peak.CompareAndSwap(old, c) {
				break
			}
		}
		time.Sleep(100 * time.Microsecond)
		cur.Add(-1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrency %d exceeds budget %d", got, workers)
	}
}

// TestSharedPoolBoundsConcurrentCalls checks that two concurrent operations
// on one shared pool stay within workers + callers total parallelism (the
// callers always participate; the helper budget is shared, not duplicated).
func TestSharedPoolBoundsConcurrentCalls(t *testing.T) {
	const workers = 4
	const callers = 3
	p := New(workers)
	defer p.Close()
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.ForGrain(context.Background(), 64, 1, func(i int) {
				n := cur.Add(1)
				for {
					old := peak.Load()
					if n <= old || peak.CompareAndSwap(old, n) {
						break
					}
				}
				time.Sleep(200 * time.Microsecond)
				cur.Add(-1)
			})
		}()
	}
	wg.Wait()
	// w-1 helpers plus the three calling goroutines.
	if limit := int32(workers - 1 + callers); peak.Load() > limit {
		t.Fatalf("peak concurrency %d exceeds shared limit %d", peak.Load(), limit)
	}
}

func TestCancelledBeforeStart(t *testing.T) {
	p := New(4)
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	if err := p.For(ctx, 100, func(i int) { ran = true }); err != context.Canceled {
		t.Fatalf("For: err=%v want context.Canceled", err)
	}
	if err := p.Do(ctx, func() { ran = true }); err != context.Canceled {
		t.Fatalf("Do: err=%v want context.Canceled", err)
	}
	if _, err := p.Sum(ctx, 100, func(i int) float64 { return 1 }); err != context.Canceled {
		t.Fatalf("Sum: err=%v want context.Canceled", err)
	}
	if err := Sort(ctx, p, make([]int, 100), func(a, b int) bool { return a < b }); err != context.Canceled {
		t.Fatalf("Sort: err=%v want context.Canceled", err)
	}
	if ran {
		t.Fatal("work ran under a cancelled context")
	}
}

// TestCancelMidRun cancels from inside an iteration and checks both that the
// loop reports ctx.Err() and that chunks stop starting afterwards (allowing
// the in-flight chunks to drain).
func TestCancelMidRun(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p := New(workers)
		ctx, cancel := context.WithCancel(context.Background())
		var count atomic.Int32
		err := p.ForGrain(ctx, 100000, 16, func(i int) {
			if count.Add(1) == 50 {
				cancel()
			}
		})
		if err != context.Canceled {
			t.Fatalf("workers=%d: err=%v want context.Canceled", workers, err)
		}
		// Cancellation is chunk-grained: at most the chunks already started
		// may finish. With 8 chunks per worker the total chunk budget is
		// small, so a full run (100000 iterations) proves checks are absent.
		if c := count.Load(); int(c) >= 100000 {
			t.Fatalf("workers=%d: loop ran to completion (%d) despite cancellation", workers, c)
		}
		cancel()
		p.Close()
	}
}

func TestDoRunsAll(t *testing.T) {
	p := New(4)
	defer p.Close()
	var a, b, c int32
	err := p.Do(context.Background(),
		func() { atomic.StoreInt32(&a, 1) },
		func() { atomic.StoreInt32(&b, 2) },
		func() { atomic.StoreInt32(&c, 3) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("Do did not run all functions: %d %d %d", a, b, c)
	}
	if err := p.Do(context.Background()); err != nil { // must not panic
		t.Fatal(err)
	}
}

// TestNestedOperationsNoDeadlock exercises nesting: chunks of an outer loop
// issue inner pool operations on the same pool. The inline-fallback design
// must make progress regardless of how many helpers are busy.
func TestNestedOperationsNoDeadlock(t *testing.T) {
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	err := p.ForGrain(context.Background(), 64, 1, func(i int) {
		s, err := p.Sum(context.Background(), 4096, func(j int) float64 { return 1 })
		if err == nil {
			total.Add(int64(s))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if total.Load() != 64*4096 {
		t.Fatalf("nested sum %d want %d", total.Load(), 64*4096)
	}
}

func TestSortMatchesStdlib(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 100, sortSeqCutoff, 3 * sortSeqCutoff} {
		rng := rand.New(rand.NewSource(int64(n)))
		s := make([]float64, n)
		for i := range s {
			s[i] = rng.Float64()
		}
		want := append([]float64(nil), s...)
		sort.Float64s(want)
		if err := Sort(context.Background(), p, s, func(a, b float64) bool { return a < b }); err != nil {
			t.Fatal(err)
		}
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("n=%d: mismatch at %d", n, i)
			}
		}
	}
}

func TestSum(t *testing.T) {
	p := New(4)
	defer p.Close()
	for _, n := range []int{0, 1, 100, 4 * minGrain, 30000} {
		got, err := p.Sum(context.Background(), n, func(i int) float64 { return 1 })
		if err != nil || got != float64(n) {
			t.Fatalf("Sum n=%d: got %v err %v", n, got, err)
		}
	}
}

// TestCloseDegradesGracefully: operations after Close still complete, just
// without helper parallelism.
func TestCloseDegradesGracefully(t *testing.T) {
	p := New(4)
	p.Close()
	p.Close() // idempotent
	// Give the helpers a moment to exit so trySubmit reliably fails.
	time.Sleep(time.Millisecond)
	seen := make([]int32, 10000)
	if err := p.For(context.Background(), len(seen), func(i int) { atomic.AddInt32(&seen[i], 1) }); err != nil {
		t.Fatal(err)
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("after Close: index %d visited %d times", i, c)
		}
	}
}

func TestWorkersOneIsSequentialAndSpawnsNothing(t *testing.T) {
	p := New(1)
	defer p.Close()
	if p.tasks != nil {
		t.Fatal("size-1 pool should not create a task channel")
	}
	order := make([]int, 0, 2000)
	if err := p.For(context.Background(), 2000, func(i int) { order = append(order, i) }); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("size-1 pool ran out of order at %d: %d", i, v)
		}
	}
}

func TestDefaultTracksGOMAXPROCS(t *testing.T) {
	p := Default()
	if p.Workers() < 1 {
		t.Fatalf("default pool has %d workers", p.Workers())
	}
	if Default() != p {
		t.Fatal("default pool not cached")
	}
}
