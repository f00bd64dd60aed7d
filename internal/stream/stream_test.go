package stream

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/matrix"
	"pfg/internal/ws"
)

// ticks generates a deterministic stream of samples (each length n).
func ticks(seed int64, n, count int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for k := range out {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() + 0.3*math.Sin(float64(k)/7+float64(i))
		}
		out[k] = x
	}
	return out
}

// batchWindow runs the batch Pearson pipeline over the engine's current
// window with a sequential pool.
func batchWindow(t *testing.T, e *Engine) *matrix.Sym {
	t.Helper()
	z := e.Linearize()
	defer e.w.PutFloat64(z)
	n, l := e.N(), e.Len()
	series := make([][]float64, n)
	for i := range series {
		series[i] = z[i*l : (i+1)*l]
	}
	pool := exec.New(1)
	defer pool.Close()
	sim, err := matrix.PearsonWS(context.Background(), pool, nil, series)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// snapshot materializes the engine's moments through the shared finish.
func snapshot(t *testing.T, e *Engine) *matrix.Sym {
	t.Helper()
	n := e.N()
	sim := matrix.NewSym(n)
	sums := make([]float64, n)
	cnt, err := e.CopyState(sim.Data, sums)
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(1)
	defer pool.Close()
	if err := matrix.FinishMomentsWS(context.Background(), pool, nil, sim, sums, cnt); err != nil {
		t.Fatal(err)
	}
	return sim
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestEngineFillBitIdentical: while the window is filling (and right at
// fill), every snapshot is bit-identical to the batch pipeline over the
// pushed samples — the exactness half of the streaming contract.
func TestEngineFillBitIdentical(t *testing.T) {
	const n, window = 7, 16
	e, err := New(n, window, 4, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(1)
	defer pool.Close()
	ctx := context.Background()
	for k, x := range ticks(1, n, window) {
		if err := e.Push(ctx, pool, x); err != nil {
			t.Fatal(err)
		}
		if e.Len() != k+1 || !e.Exact() {
			t.Fatalf("after %d pushes: Len=%d Exact=%v", k+1, e.Len(), e.Exact())
		}
		if k+1 < 2 {
			continue
		}
		sim := snapshot(t, e)
		wantSim := batchWindow(t, e)
		if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
			t.Fatalf("tick %d: sim[%d] = %v, batch %v", k, i, sim.Data[i], wantSim.Data[i])
		}
	}
}

// TestEngineSlideDriftAndRebuild: after the window slides the moments drift
// but stay within tolerance of batch, the engine reports itself inexact, and
// a rebuild — periodic or forced — restores bit-identity.
func TestEngineSlideDriftAndRebuild(t *testing.T) {
	const n, window, K = 6, 12, 5
	e, err := New(n, window, K, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(1)
	defer pool.Close()
	ctx := context.Background()
	stream := ticks(2, n, window+3*K+2)
	for k, x := range stream {
		if err := e.Push(ctx, pool, x); err != nil {
			t.Fatal(err)
		}
		if k < window {
			continue
		}
		slides := k + 1 - window
		wantExact := slides%K == 0 // every K-th slide triggers the rebuild
		if e.Exact() != wantExact {
			t.Fatalf("tick %d (slides=%d): Exact=%v want %v", k, slides, e.Exact(), wantExact)
		}
		sim := snapshot(t, e)
		wantSim := batchWindow(t, e)
		if wantExact {
			if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
				t.Fatalf("tick %d: rebuilt snapshot not bit-identical at %d", k, i)
			}
		} else if d := maxAbsDiff(sim.Data, wantSim.Data); d > 1e-9 {
			t.Fatalf("tick %d: drift %v exceeds tolerance", k, d)
		}
	}

	// Push one more slide so the state is dirty, then force a rebuild.
	if err := e.Push(ctx, pool, ticks(3, n, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if e.Exact() {
		t.Fatal("expected dirty state before forced rebuild")
	}
	if err := e.Rebuild(ctx, pool); err != nil {
		t.Fatal(err)
	}
	if !e.Exact() || e.slides != 0 {
		t.Fatal("forced rebuild did not restore exactness")
	}
	sim := snapshot(t, e)
	wantSim := batchWindow(t, e)
	if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
		t.Fatalf("forced rebuild: sim[%d] differs", i)
	}
}

// TestEngineWorkersBitIdentical: the moment band is bit-independent of the
// worker budget driving the rank-1 and rebuild kernels.
func TestEngineWorkersBitIdentical(t *testing.T) {
	const n, window = 33, 20
	stream := ticks(4, n, window+13)
	run := func(workers int) []float64 {
		e, err := New(n, window, 8, ws.New())
		if err != nil {
			t.Fatal(err)
		}
		pool := exec.New(workers)
		defer pool.Close()
		for _, x := range stream {
			if err := e.Push(context.Background(), pool, x); err != nil {
				t.Fatal(err)
			}
		}
		g := make([]float64, n*n)
		s := make([]float64, n)
		if _, err := e.CopyState(g, s); err != nil {
			t.Fatal(err)
		}
		return append(g, s...)
	}
	want := run(1)
	for _, workers := range []int{2, 5} {
		got := run(workers)
		if i := bitsEqual(got, want); i >= 0 {
			t.Fatalf("workers=%d: state differs at %d", workers, i)
		}
	}
}

// TestEngineValidation pins the error surface: bad constructor arguments,
// wrong sample arity, and non-finite samples (which must leave the state
// untouched).
func TestEngineValidation(t *testing.T) {
	if _, err := New(0, 8, 0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := New(4, 1, 0, nil); err == nil {
		t.Fatal("window=1 accepted")
	}
	e, err := New(3, 4, 0, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(1)
	defer pool.Close()
	ctx := context.Background()
	if err := e.Push(ctx, pool, []float64{1, 2}); err == nil {
		t.Fatal("short sample accepted")
	}
	if err := e.Push(ctx, pool, []float64{1, math.NaN(), 2}); err == nil {
		t.Fatal("NaN sample accepted")
	}
	if err := e.Push(ctx, pool, []float64{1, math.Inf(-1), 2}); err == nil {
		t.Fatal("Inf sample accepted")
	}
	// Finite but band-overflowing magnitudes are rejected at the door: one
	// admitted 1e160 sample would drive g to +Inf and its downdate would
	// leave NaNs no roll could remove.
	if err := e.Push(ctx, pool, []float64{1, 1e160, 2}); err == nil {
		t.Fatal("band-overflowing magnitude accepted")
	}
	if e.Len() != 0 {
		t.Fatal("rejected pushes mutated the window")
	}
	if err := e.Push(ctx, pool, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if e.Len() != 1 {
		t.Fatal("valid push not admitted")
	}
}

// TestEngineCancelledPushRecovers: a Push aborted by a cancelled context
// reports the error, leaves the sample unadmitted, and the engine
// resynchronizes from the ring on the next successful operation — no
// half-applied tick ever reaches a snapshot.
func TestEngineCancelledPushRecovers(t *testing.T) {
	const n, window = 5, 8
	e, err := New(n, window, 0, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(1)
	defer pool.Close()
	ctx := context.Background()
	stream := ticks(9, n, window+3)
	for _, x := range stream[:window+1] {
		if err := e.Push(ctx, pool, x); err != nil {
			t.Fatal(err)
		}
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := e.Push(cancelled, pool, stream[window+1]); err == nil {
		t.Fatal("cancelled push succeeded")
	}
	if e.Exact() {
		t.Fatal("engine claims exactness after an aborted kernel")
	}
	// The half-applied band must be refused, not served.
	if _, err := e.CopyState(make([]float64, n*n), make([]float64, n)); err == nil {
		t.Fatal("corrupt moment state served to a snapshot")
	}
	if err := e.Push(ctx, pool, stream[window+2]); err != nil {
		t.Fatal(err)
	}
	if e.Len() != window {
		t.Fatalf("Len=%d", e.Len())
	}
	if err := e.Rebuild(ctx, pool); err != nil {
		t.Fatal(err)
	}
	sim := snapshot(t, e)
	wantSim := batchWindow(t, e)
	if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
		t.Fatalf("recovered state differs from batch at %d", i)
	}
	// The cancelled sample must not be in the window: its successor is the
	// newest ring entry.
	z := e.Linearize()
	defer e.w.PutFloat64(z)
	for i := 0; i < n; i++ {
		if z[i*window+window-1] != stream[window+2][i] {
			t.Fatalf("series %d newest sample is %v, want %v", i, z[i*window+window-1], stream[window+2][i])
		}
	}
}

// TestEngineRebuildDisabled: rebuildEvery ≤ 0 never rebuilds on its own.
func TestEngineRebuildDisabled(t *testing.T) {
	const n, window = 4, 6
	e, err := New(n, window, -1, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(1)
	defer pool.Close()
	for _, x := range ticks(5, n, 40) {
		if err := e.Push(context.Background(), pool, x); err != nil {
			t.Fatal(err)
		}
	}
	if e.Exact() || e.slides != 40-window {
		t.Fatalf("Exact=%v slides=%d", e.Exact(), e.slides)
	}
}

// TestEngineLargeWindowFillBitIdentical exercises the fill-phase panel split
// (gCur) that only engages for windows longer than one T-panel: across the
// whole fill of a multi-panel window — including both panel boundaries and
// the final partial panel — every snapshot must stay bit-identical to the
// batch pipeline, and rebuilds mid-fill must reconstruct the split state
// exactly.
func TestEngineLargeWindowFillBitIdentical(t *testing.T) {
	const n = 5
	window := 2*kernel.PanelLen + 37
	e, err := New(n, window, 0, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	pool := exec.New(3)
	defer pool.Close()
	ctx := context.Background()
	// Check snapshots at the interesting counts only (full checks are
	// O(n²·T) each): around each panel boundary, mid-panel, and fill end.
	checks := map[int]bool{
		2: true, 3: true,
		kernel.PanelLen - 1: true, kernel.PanelLen: true, kernel.PanelLen + 1: true,
		kernel.PanelLen + kernel.PanelLen/2: true,
		2*kernel.PanelLen - 1:               true, 2 * kernel.PanelLen: true, 2*kernel.PanelLen + 1: true,
		window - 1: true, window: true,
	}
	rebuilds := map[int]bool{ // forced rebuilds mid-fill must be no-ops bit-wise
		kernel.PanelLen / 2: true, kernel.PanelLen: true, 2*kernel.PanelLen + 9: true,
	}
	for k, x := range ticks(21, n, window) {
		if err := e.Push(ctx, pool, x); err != nil {
			t.Fatal(err)
		}
		c := k + 1
		if rebuilds[c] {
			before := make([]float64, n*n)
			bs := make([]float64, n)
			if _, err := e.CopyState(before, bs); err != nil {
				t.Fatal(err)
			}
			if err := e.Rebuild(ctx, pool); err != nil {
				t.Fatal(err)
			}
			after := make([]float64, n*n)
			as := make([]float64, n)
			if _, err := e.CopyState(after, as); err != nil {
				t.Fatal(err)
			}
			if i := bitsEqual(after, before); i >= 0 {
				t.Fatalf("count %d: mid-fill rebuild changed band bit %d: %v vs %v", c, i, after[i], before[i])
			}
			if i := bitsEqual(as, bs); i >= 0 {
				t.Fatalf("count %d: mid-fill rebuild changed sums at %d", c, i)
			}
		}
		if !checks[c] {
			continue
		}
		if !e.Exact() {
			t.Fatalf("count %d: engine not exact during fill", c)
		}
		sim := snapshot(t, e)
		wantSim := batchWindow(t, e)
		if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
			t.Fatalf("count %d: sim[%d] = %v, batch %v", c, i, sim.Data[i], wantSim.Data[i])
		}
	}
	if e.BandBytes() != n*n*8 {
		t.Fatalf("BandBytes after fill = %d, want %d (gCur not released?)", e.BandBytes(), n*n*8)
	}

	// One slide past fill, then a rebuild: the steady-state path over a
	// multi-panel window must restore batch bit-identity too.
	if err := e.Push(ctx, pool, ticks(22, n, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.Rebuild(ctx, pool); err != nil {
		t.Fatal(err)
	}
	sim := snapshot(t, e)
	wantSim := batchWindow(t, e)
	if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
		t.Fatalf("post-slide rebuild: sim[%d] differs", i)
	}
}
