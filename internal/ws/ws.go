// Package ws provides the per-call scratch workspace threaded through the
// clustering pipeline alongside ctx and the exec pool. A Workspace is a set
// of free lists of reusable buffers — bitsets, int32 stacks/queues, float64
// rows, and flat CSR groupings — acquired at the top of a Cluster call (or
// from the process-wide sync.Pool) and handed down to every layer, so that
// repeated calls on same-shaped inputs reach steady state with near-zero
// allocations: after the first call warms the pool, the hot paths run
// entirely on recycled flat memory.
//
// Concurrency. A Workspace may be shared by the parallel stages of one call:
// the free lists are mutex-protected, so goroutines can acquire and release
// buffers concurrently. The buffers themselves are owned exclusively by the
// acquirer until returned. Distinct concurrent Cluster calls each take their
// own Workspace from the global pool and cannot contend on buffers at all.
package ws

import (
	"sync"

	"pfg/internal/bitset"
)

// Workspace holds pooled scratch buffers. The zero value is ready to use.
// All methods are safe on a nil receiver: acquisition falls back to plain
// allocation and release becomes a no-op, so WS-aware code paths need no
// nil branches.
type Workspace struct {
	mu        sync.Mutex
	bitsets   []*bitset.Set
	i32       [][]int32
	f64       [][]float64
	groupings []*Grouping
}

var global = sync.Pool{New: func() any { return new(Workspace) }}

// Get returns a workspace from the process-wide pool. Pair with Put.
func Get() *Workspace { return global.Get().(*Workspace) }

// New returns a fresh workspace owned by the caller for its entire lifetime —
// the long-lived alternative to the per-call Get/Put pairing. Stateful
// servers (pfg.Streamer) pin one workspace per instance so their steady-state
// ticks recycle the same buffers deterministically instead of competing for
// (and churning) the process-wide sync.Pool, whose entries the GC may drop
// between calls. A pinned workspace is never passed to Put; it is released by
// letting it go out of scope.
func New() *Workspace { return new(Workspace) }

// Put returns a workspace (and every buffer released back into it) to the
// process-wide pool for reuse by later calls.
func Put(w *Workspace) {
	if w != nil {
		global.Put(w)
	}
}

// Bitset returns a cleared bitset with capacity n. Return it with PutBitset.
func (w *Workspace) Bitset(n int) *bitset.Set {
	if w == nil {
		return bitset.New(n)
	}
	w.mu.Lock()
	var s *bitset.Set
	if k := len(w.bitsets); k > 0 {
		s = w.bitsets[k-1]
		w.bitsets = w.bitsets[:k-1]
	}
	w.mu.Unlock()
	if s == nil {
		return bitset.New(n)
	}
	s.Reset(n)
	return s
}

// PutBitset releases a bitset back to the workspace.
func (w *Workspace) PutBitset(s *bitset.Set) {
	if w == nil || s == nil {
		return
	}
	w.mu.Lock()
	w.bitsets = append(w.bitsets, s)
	w.mu.Unlock()
}

// Int32 returns an int32 buffer of length n with unspecified contents.
// Return it with PutInt32. Selection is best-fit: the smallest adequate
// buffer is taken, so a small request cannot consume an n²-sized buffer and
// force the next large request to allocate.
func (w *Workspace) Int32(n int) []int32 {
	if w == nil {
		return make([]int32, n)
	}
	w.mu.Lock()
	best := -1
	for k := len(w.i32) - 1; k >= 0; k-- {
		if c := cap(w.i32[k]); c >= n && (best < 0 || c < cap(w.i32[best])) {
			best = k
		}
	}
	if best >= 0 {
		s := w.i32[best]
		w.i32[best] = w.i32[len(w.i32)-1]
		w.i32 = w.i32[:len(w.i32)-1]
		w.mu.Unlock()
		return s[:n]
	}
	w.mu.Unlock()
	return make([]int32, n)
}

// PutInt32 releases an int32 buffer back to the workspace.
func (w *Workspace) PutInt32(s []int32) {
	if w == nil || cap(s) == 0 {
		return
	}
	w.mu.Lock()
	w.i32 = append(w.i32, s[:0])
	w.mu.Unlock()
}

// Float64 returns a float64 buffer of length n with unspecified contents.
// Return it with PutFloat64. Selection is best-fit, as in Int32.
func (w *Workspace) Float64(n int) []float64 {
	if w == nil {
		return make([]float64, n)
	}
	w.mu.Lock()
	best := -1
	for k := len(w.f64) - 1; k >= 0; k-- {
		if c := cap(w.f64[k]); c >= n && (best < 0 || c < cap(w.f64[best])) {
			best = k
		}
	}
	if best >= 0 {
		s := w.f64[best]
		w.f64[best] = w.f64[len(w.f64)-1]
		w.f64 = w.f64[:len(w.f64)-1]
		w.mu.Unlock()
		return s[:n]
	}
	w.mu.Unlock()
	return make([]float64, n)
}

// PutFloat64 releases a float64 buffer back to the workspace.
func (w *Workspace) PutFloat64(s []float64) {
	if w == nil || cap(s) == 0 {
		return
	}
	w.mu.Lock()
	w.f64 = append(w.f64, s[:0])
	w.mu.Unlock()
}

// Grouping returns an empty grouping ready for Append/EndGroup building.
// Return it with PutGrouping.
func (w *Workspace) Grouping() *Grouping {
	if w == nil {
		g := new(Grouping)
		g.Reset()
		return g
	}
	w.mu.Lock()
	var g *Grouping
	if k := len(w.groupings); k > 0 {
		g = w.groupings[k-1]
		w.groupings = w.groupings[:k-1]
	}
	w.mu.Unlock()
	if g == nil {
		g = new(Grouping)
	}
	g.Reset()
	return g
}

// PutGrouping releases a grouping back to the workspace.
func (w *Workspace) PutGrouping(g *Grouping) {
	if w == nil || g == nil {
		return
	}
	w.mu.Lock()
	w.groupings = append(w.groupings, g)
	w.mu.Unlock()
}
