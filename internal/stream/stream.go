// Package stream maintains rolling-window Pearson moments incrementally so a
// clustering snapshot costs O(n²) arithmetic per tick instead of the full
// O(n²·T) batch correlation recompute.
//
// The Engine keeps, for the last `window` samples of an n-series stream, the
// raw moments the batch pipeline (matrix.PearsonWS) is built on: the rolling
// sums Σₜ xᵢ(t), the sums of squares (the diagonal of the cross-product
// band), and the full upper-triangle cross-product band Σₜ xᵢ(t)·xⱼ(t). Each
// Push applies a rank-1 update with the arriving sample and, once the window
// is full, a rank-1 downdate with the departing one (kernel.Rank1RollUpper) —
// O(n²) work. Snapshots copy the band and hand it to the same
// matrix.FinishMomentsWS arithmetic the batch path uses.
//
// Exactness. While the window is filling, the engine maintains the same
// ascending-panel fold SyrkUpperRange computes: rank-1 updates accumulate
// into a current-panel band, which folds into the running band at every
// kernel.PanelLen boundary — so the moments are bit-identical to a batch
// recomputation over the pushed samples — not merely close. Once the window
// slides, downdates introduce float drift (subtracting a term is not the
// exact inverse of having added it), so the engine rebuilds the moments
// exactly — linearizing the ring in time order and re-running the panel-
// parallel SYRK — every rebuildEvery slides, bounding drift to what at most
// rebuildEvery roll steps can accumulate. Immediately after any rebuild
// (periodic or forced), snapshots are again bit-identical to batch. Exact
// reports which regime the engine is in.
//
// Storage. The ring, the moment band and the rolling sums are float64, the
// precision of the batch pipeline every exactness guarantee above is stated
// against.
//
// Failure. Once built, an engine fails in one way only: Push rejects a
// malformed sample before it changes any state. No method takes a context:
// the kernels run on the caller's pool under context.Background, which is
// never cancelled, so none stops partway and leaves the moment band
// half-applied.
//
// Concurrency. An Engine is NOT internally synchronized: callers serialize
// Push/Rebuild (writers) against CopyState (reader) themselves. pfg.Streamer
// wraps an Engine in the RWMutex discipline (Push exclusive, Snapshot
// shared) and is the concurrency-safe entry point.
package stream

import (
	"context"
	"fmt"
	"math"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/matrix"
	"pfg/internal/obs"
	"pfg/internal/ws"
)

// Metrics is the engine's per-stage instrumentation: the three phases of a
// tick's life. All stages may be nil (each no-ops); a nil *Metrics disables
// timing entirely — the engine then never calls time.Now on the push path.
type Metrics struct {
	// Admit covers sample validation (shape, finiteness, magnitude bound).
	Admit *obs.Stage
	// Roll covers the rank-1 kernel work plus moment bookkeeping of an
	// admitted push — the O(n²) heart of a tick (fill-phase panel folds
	// included, periodic rebuilds excluded; those go to Rebuild).
	Roll *obs.Stage
	// Rebuild covers exact moment rebuilds — periodic drift discards and
	// explicit Rebuild calls.
	Rebuild *obs.Stage
}

// maxSampleMagnitude bounds admitted sample values so the moment band can
// never overflow: with |x| ≤ √(MaxFloat64/window), every cross product is
// ≤ MaxFloat64/window and a window's worth of them sums below MaxFloat64.
// Without the bound, one finite-but-huge sample would push g to +Inf, and
// its eventual downdate would turn the band into NaNs (Inf−Inf) that no roll
// can ever wash out — poisoning snapshots until the next exact rebuild (or
// forever, with periodic rebuilds disabled). Rejecting at the door keeps the
// band finite by construction. The bound is astronomically above any real
// signal (~2.1e152 for a 4096-tick window).
func maxSampleMagnitude(window int) float64 {
	return math.Sqrt(math.MaxFloat64 / float64(window))
}

// DefaultRebuildEvery is the default number of window slides between exact
// moment rebuilds. At the default, the amortized rebuild cost per tick is
// n²·T/DefaultRebuildEvery — under 2% of a tick's O(n²) roll work for
// windows up to ~5000 samples — while worst-case drift stays bounded by 256
// rank-1 roll roundings (empirically ~1e-12 relative for unit-scale data).
const DefaultRebuildEvery = 256

// rollGrain is the ForBlocked row grain of the per-tick rank-1 kernels.
const rollGrain = 16

// Engine is the incremental moment state of one rolling window.
type Engine struct {
	n, window    int
	rebuildEvery int // ≤ 0 disables periodic rebuilds

	count  int    // samples currently in the window (≤ window)
	head   int    // ring slot the next sample will occupy
	slides int    // slides since the last exact rebuild; > 0 means drifted
	gen    uint64 // version counter: bumped whenever snapshot-visible state changes

	ring []float64 // window×n, sample-major: ring[slot*n+i]
	g    []float64 // n×n cross-product band: the folded full panels
	// gCur is the fill phase's current-panel band for windows longer than
	// one T-panel: rank-1 updates chain into it, and at every
	// kernel.PanelLen samples it folds into g — reproducing the batch SYRK's
	// ascending-panel fold bit-for-bit (the add order of the fold is the
	// same one rounded add per entry). Released once the window fills; nil
	// for windows within a single panel, where g carries the chain directly.
	gCur []float64
	s    []float64 // n rolling sums

	maxMag  float64 // sample magnitude bound keeping the band finite
	w       *ws.Workspace
	genHook func()   // called synchronously after every generation advance (nil = none)
	met     *Metrics // per-stage timing, nil = uninstrumented (no time.Now on pushes)
}

// New creates an engine for n series over the given window, drawing its
// long-lived state from w (which the caller must keep alive alongside the
// engine). rebuildEvery ≤ 0 disables periodic rebuilds (drift then grows
// unboundedly until Rebuild is called explicitly).
func New(n, window, rebuildEvery int, w *ws.Workspace) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("stream: need at least 1 series, have %d", n)
	}
	if window < 2 {
		return nil, fmt.Errorf("stream: window %d < 2", window)
	}
	e := &Engine{
		n:            n,
		window:       window,
		rebuildEvery: rebuildEvery,
		s:            w.Float64(n),
		maxMag:       maxSampleMagnitude(window),
		w:            w,
	}
	clear(e.s)
	e.ring = w.Float64(window * n)
	e.g = w.Float64(n * n)
	clear(e.g)
	if window > kernel.PanelLen {
		e.gCur = w.Float64(n * n)
		clear(e.gCur)
	}
	return e, nil
}

// N returns the number of series.
func (e *Engine) N() int { return e.n }

// Len returns the number of samples currently in the window.
func (e *Engine) Len() int { return e.count }

// BandBytes reports the resident bytes of the engine's moment-band storage
// (including the fill-phase current-panel band while it is allocated) — the
// figure the serving layer's /statsz reports per session.
func (e *Engine) BandBytes() int { return (len(e.g) + len(e.gCur)) * 8 }

// RingBytes reports the resident bytes of the series ring.
func (e *Engine) RingBytes() int { return len(e.ring) * 8 }

// Exact reports whether the moments are currently bit-identical to a batch
// recomputation over the window (true while filling and right after a
// rebuild; false once a slide has drifted them).
func (e *Engine) Exact() bool { return e.slides == 0 }

// Generation returns a monotonic version counter of the snapshot-visible
// moment state: it advances on every admitted Push and on every Rebuild that
// discards drift (so two CopyState calls observing the same generation are
// guaranteed bit-identical moments). It is a version stamp, not a tick count —
// a Push that triggers a periodic rebuild advances it twice. Serving layers
// key snapshot caches on it: a cached clustering of generation g stays valid
// until Generation() moves past g.
func (e *Engine) Generation() uint64 { return e.gen }

// SetMetrics installs (or, with nil, removes) per-stage timing. Like every
// other engine mutation it is the caller's job to serialize it against
// Push/Rebuild; pfg.Streamer applies it under its write lock.
func (e *Engine) SetMetrics(m *Metrics) { e.met = m }

// SetGenHook registers fn to be called synchronously, on the writer's
// goroutine, after every Generation advance — the watch hook push-based
// serving layers key broadcasts on. Because the hook runs inside Push and
// Rebuild (typically under whatever write lock the caller serializes writers
// with), it must be fast and must not call back into the engine or block;
// closing-and-replacing a notification channel is the intended shape. A nil
// fn clears the hook.
func (e *Engine) SetGenHook(fn func()) { e.genHook = fn }

// bumpGen advances the generation stamp and fires the watch hook. Every
// snapshot-visible state change goes through it, so a hook observer can never
// miss a generation — including the double advance of a Push that triggers a
// periodic rebuild.
func (e *Engine) bumpGen() {
	e.gen++
	if e.genHook != nil {
		e.genHook()
	}
}

// Push admits one sample (one observation per series) into the window,
// updating the moments in O(n²). It fails only by rejecting the sample: one
// of the wrong length, with a non-finite value, or with a magnitude large
// enough to overflow the moment band (see maxSampleMagnitude). The check runs
// before any state changes, so a rejected sample leaves the window, the
// moments and the generation exactly as they were; an admitted one always
// lands whole. The pool drives the rank-1 band kernels; their output is
// bit-independent of the worker count.
func (e *Engine) Push(pool *exec.Pool, x []float64) error {
	if len(x) != e.n {
		return fmt.Errorf("stream: sample has %d values, want %d", len(x), e.n)
	}
	// Stage timing is straight-line and guarded — the uninstrumented path
	// never calls time.Now and a rejected sample is never observed.
	var sw obs.Stopwatch
	if e.met != nil {
		sw.Start()
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: sample value %d is non-finite", i)
		}
		if v > e.maxMag || v < -e.maxMag {
			return fmt.Errorf("stream: sample value %d (%g) exceeds the magnitude bound %g for window %d", i, v, e.maxMag, e.window)
		}
	}
	if e.met != nil {
		sw.Lap(e.met.Admit)
	}
	slot := e.ring[e.head*e.n : e.head*e.n+e.n]
	if e.count == e.window {
		// Steady state: fused rank-1 update (arriving sample) + downdate
		// (departing sample, currently in the head slot).
		e.rows(pool, rollGrain, func(lo, hi int) {
			kernel.Rank1RollUpper(e.g, e.n, x, slot, lo, hi)
		})
		for i, v := range x {
			e.s[i] += v - slot[i]
		}
		copy(slot, x)
		e.advanceHead()
		e.slides++
		e.bumpGen()
		if e.met != nil {
			sw.Lap(e.met.Roll)
		}
		if e.rebuildEvery > 0 && e.slides >= e.rebuildEvery {
			e.Rebuild(pool)
		}
		return nil
	}
	// Filling: a pure rank-1 update appends one ascending-t term to the
	// current panel's moment chain, keeping the state bit-identical to a
	// batch recompute (after panel folds, below).
	dst := e.g
	if e.gCur != nil {
		dst = e.gCur
	}
	e.rows(pool, rollGrain, func(lo, hi int) {
		kernel.Rank1UpdateUpper(dst, e.n, x, lo, hi)
	})
	if e.gCur != nil {
		// Panel bookkeeping, in batch-fold order: fold a completed panel
		// first, then (on a partial final panel) materialize the fill's end
		// state.
		c1 := e.count + 1
		if c1%kernel.PanelLen == 0 {
			e.foldCurrent(pool, c1 == kernel.PanelLen)
		}
		if c1 == e.window {
			if c1%kernel.PanelLen != 0 {
				// Final partial panel: fold it to finish the batch chain.
				// c1 > PanelLen here, so g already holds folded panels.
				e.foldCurrent(pool, false)
			}
			// The fill is complete; the current-panel band is done for good.
			e.w.PutFloat64(e.gCur)
			e.gCur = nil
		}
	}
	for i, v := range x {
		e.s[i] += v
	}
	copy(slot, x)
	e.advanceHead()
	e.count++
	e.bumpGen()
	if e.met != nil {
		sw.Lap(e.met.Roll)
	}
	return nil
}

// rows runs f over row blocks of the n-row band on pool. The engine takes no
// context: every pool kernel it runs goes through rows, or through
// matrix.SyrkUpperWS in Rebuild, under context.Background. ForBlocked and
// SyrkUpperWS fail only once their context is cancelled, and that context
// never is, so their error is always nil and no kernel stops partway
// through the band.
func (e *Engine) rows(pool *exec.Pool, grain int, f func(lo, hi int)) {
	_ = pool.ForBlocked(context.Background(), e.n, grain, f)
}

func (e *Engine) advanceHead() {
	e.head++
	if e.head == e.window {
		e.head = 0
	}
}

// foldCurrent folds the completed current-panel band into g — the one
// rounded add per entry the batch SYRK performs at a panel boundary — and
// rezeroes it for the next panel's chain. The very first fold is a copy, not
// an add: the batch fold's first panel IS the chain (folding 0 + chain would
// flush the sign of negative zeros).
func (e *Engine) foldCurrent(pool *exec.Pool, first bool) {
	n := e.n
	e.rows(pool, rollGrain, func(lo, hi int) {
		if first {
			for i := lo; i < hi; i++ {
				copy(e.g[i*n+i:(i+1)*n], e.gCur[i*n+i:(i+1)*n])
			}
		} else {
			kernel.AddUpper(e.g, e.gCur, n, lo, hi)
		}
		for i := lo; i < hi; i++ {
			clear(e.gCur[i*n+i : (i+1)*n])
		}
	})
}

// Rebuild recomputes the moments exactly from the buffered window: the ring
// is linearized in time order and the panel-parallel SYRK re-folds the
// cross-product band with the same ascending-panel arithmetic the batch path
// uses, discarding all accumulated roll drift. During the fill phase of a
// multi-panel window it reconstructs the split state — folded full panels in
// g, the partial panel's chain in gCur — so it lands on exactly the state
// incremental pushes produce. O(n²·T); snapshots taken before the next slide
// are bit-identical to batch afterwards. Like every engine kernel it runs to
// completion on the pool (see rows), so it cannot fail.
func (e *Engine) Rebuild(pool *exec.Pool) {
	if e.count == 0 {
		return
	}
	var sw obs.Stopwatch
	if e.met != nil {
		sw.Start()
	}
	n, t := e.n, e.count
	z := e.Linearize()
	defer e.w.PutFloat64(z)
	for i := 0; i < n; i++ {
		sum := 0.0
		for _, v := range z[i*t : (i+1)*t] {
			sum += v
		}
		e.s[i] = sum
	}
	full := t
	if e.gCur != nil {
		full = t - t%kernel.PanelLen
	}
	_ = matrix.SyrkUpperWS(context.Background(), pool, e.w, z, n, t, full, e.g) // nil: see rows
	if e.gCur != nil {
		e.rows(pool, kernel.RowBandGrain, func(lo, hi int) {
			// The partial panel [full, t) is one panel-aligned slice:
			// store-mode SyrkUpperRange rebuilds gCur's chain from zero
			// (and zero-fills it when the partial panel is empty).
			kernel.SyrkUpperRange(z, n, t, e.gCur, lo, hi, full, t, true)
		})
	}
	if e.slides > 0 {
		// The rebuild discarded drift, so snapshot bits may have moved:
		// stamp a new generation. A rebuild of an already-exact state
		// reproduces the moments bit-for-bit and keeps the generation, so
		// caches stay warm across redundant rebuilds.
		e.bumpGen()
	}
	e.slides = 0
	if e.met != nil {
		sw.Lap(e.met.Rebuild)
	}
}

// CopyState copies the upper-triangle cross-product band into gDst (length ≥
// n², lower triangle left untouched) and the rolling sums into sDst (length
// ≥ n), returning the number of samples in the window. During the fill
// phase of a multi-panel window the copy fuses the batch SYRK's final fold —
// gDst = g + gCur — which is exactly the one add per entry the batch
// performs on its last partial panel, so snapshots stay bit-identical to
// batch mid-fill. Feeding the copies to matrix.FinishMomentsWS yields the
// window's correlation matrix. CopyState is the only reader the snapshot
// path needs, so callers can hold a shared (read) lock just for this call
// and run the finish and the clustering outside it. It cannot fail: a Push
// either admits its sample whole or changes nothing, so the band always
// holds the moments of exactly the buffered window.
func (e *Engine) CopyState(gDst, sDst []float64) int {
	n := e.n
	switch {
	case e.gCur == nil:
		for i := 0; i < n; i++ {
			copy(gDst[i*n+i:(i+1)*n], e.g[i*n+i:(i+1)*n])
		}
	case e.count < kernel.PanelLen:
		// Every sample so far is in the first (unfolded) panel: the chain in
		// gCur IS the batch result — copying g + gCur would instead flush
		// negative-zero entries through 0 + x.
		for i := 0; i < n; i++ {
			copy(gDst[i*n+i:(i+1)*n], e.gCur[i*n+i:(i+1)*n])
		}
	default:
		// Mid-fill with folded panels: fuse the final partial-panel fold.
		// When the partial panel is empty (count on a boundary) gCur is all
		// zeros and the add is exact, matching the batch fold that also ends
		// on the boundary — except for negative-zero band entries, which an
		// explicit copy preserves and 0 + (−0) would not; the boundary case
		// therefore copies g alone.
		if e.count%kernel.PanelLen == 0 {
			for i := 0; i < n; i++ {
				copy(gDst[i*n+i:(i+1)*n], e.g[i*n+i:(i+1)*n])
			}
			break
		}
		for i := 0; i < n; i++ {
			row := i * n
			for j := i; j < n; j++ {
				gDst[row+j] = e.g[row+j] + e.gCur[row+j]
			}
		}
	}
	copy(sDst[:n], e.s)
	return e.count
}

// Linearize returns the window's samples in time order as one flat n×t
// series-major float64 buffer (z[i*t+k] = sample k of series i) drawn from
// the engine's workspace; the caller releases it with PutFloat64. It is the
// exact batch-equivalent input: running the batch pipeline over its rows is
// the reference every exactness guarantee is stated against.
func (e *Engine) Linearize() []float64 {
	n, t := e.n, e.count
	z := e.w.Float64(n * t)
	start := e.oldestSlot()
	for k := 0; k < t; k++ {
		slot := start + k
		if slot >= e.window {
			slot -= e.window
		}
		row := e.ring[slot*n : slot*n+n]
		for i, v := range row {
			z[i*t+k] = v
		}
	}
	return z
}

// oldestSlot returns the ring slot of the oldest buffered sample
// (head−count wrapped; head==count while filling).
func (e *Engine) oldestSlot() int {
	start := e.head - e.count
	if start < 0 {
		start += e.window
	}
	return start
}

// Release returns the engine's long-lived buffers to its workspace, for
// callers that discard an engine while keeping the workspace (e.g. when the
// first-ever sample is rejected and the series count should stay open). The
// engine must not be used afterwards.
func (e *Engine) Release() {
	e.w.PutFloat64(e.ring)
	e.w.PutFloat64(e.g)
	if e.gCur != nil {
		e.w.PutFloat64(e.gCur)
		e.gCur = nil
	}
	e.w.PutFloat64(e.s)
	e.ring, e.g, e.s = nil, nil, nil
}
