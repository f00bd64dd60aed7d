package stream

import (
	"context"
	"fmt"
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
	cnt := e.CopyState(sim.Data, sums)
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
	for k, x := range ticks(1, n, window) {
		if err := e.Push(pool, x); err != nil {
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
	stream := ticks(2, n, window+3*K+2)
	for k, x := range stream {
		if err := e.Push(pool, x); err != nil {
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
	if err := e.Push(pool, ticks(3, n, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if e.Exact() {
		t.Fatal("expected dirty state before forced rebuild")
	}
	e.Rebuild(pool)
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
			if err := e.Push(pool, x); err != nil {
				t.Fatal(err)
			}
		}
		g := make([]float64, n*n)
		s := make([]float64, n)
		e.CopyState(g, s)
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

// TestEngineValidation pins the engine's error surface. New rejects bad
// arguments. Push fails only by rejecting a sample: wrong arity, a
// non-finite value, or a finite magnitude that would overflow the band. A
// rejection must leave everything a reader sees as it was, wherever in the
// window's life it comes: on an empty engine, mid-fill of a one-panel
// window, just after a panel fold of a multi-panel window, after the window
// has slid, and on the push that would trigger a periodic rebuild. The next
// admitted sample must then land the engine where a twin that never saw the
// rejections lands.
func TestEngineValidation(t *testing.T) {
	if _, err := New(0, 8, 0, nil); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := New(4, 1, 0, nil); err == nil {
		t.Fatal("window=1 accepted")
	}
	const n = 3
	bad := []struct {
		name string
		x    []float64
	}{
		{"short", []float64{1, 2}},
		{"long", []float64{1, 2, 3, 4}},
		{"NaN", []float64{1, math.NaN(), 2}},
		{"-Inf", []float64{1, math.Inf(-1), 2}},
		// Finite but band-overflowing: one admitted 1e160 sample would drive
		// g to +Inf, and its downdate would leave NaNs no roll could remove.
		{"huge", []float64{1, 1e160, 2}},
	}
	cases := []struct {
		name                 string
		window, rebuildEvery int
		pushes               int    // admitted before the rejections
		gens                 uint64 // generation advance of the next admitted push
	}{
		{"empty", 8, 4, 0, 1},
		{"one-panel-midfill", 8, 4, 5, 1},
		{"multi-panel-after-fold", kernel.PanelLen + 40, 4, kernel.PanelLen, 1},
		{"slid", 8, 0, 8 + 3, 1},
		{"before-periodic-rebuild", 8, 4, 8 + 3, 2},
	}
	pool := exec.New(1)
	defer pool.Close()
	// A view is what a reader sees: the CopyState band and sums, the window
	// in time order, and the counters.
	type view struct {
		state         []float64
		gen           uint64
		count, length int
	}
	observe := func(e *Engine) view {
		g, s := make([]float64, n*n), make([]float64, n)
		count := e.CopyState(g, s)
		z := e.Linearize()
		v := view{append(append(g, s...), z...), e.Generation(), count, e.Len()}
		e.w.PutFloat64(z)
		return v
	}
	differ := func(a, b view) string {
		if a.gen != b.gen || a.count != b.count || a.length != b.length || len(a.state) != len(b.state) {
			return fmt.Sprintf("gen %d/%d, count %d/%d, len %d/%d", a.gen, b.gen, a.count, b.count, a.length, b.length)
		}
		if i := bitsEqual(a.state, b.state); i >= 0 {
			return fmt.Sprintf("entry %d is %v/%v", i, a.state[i], b.state[i])
		}
		return ""
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			feed := ticks(13, n, tc.pushes+1)
			e, err := New(n, tc.window, tc.rebuildEvery, ws.New())
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range feed[:tc.pushes] {
				if err := e.Push(pool, x); err != nil {
					t.Fatal(err)
				}
			}
			before := observe(e)
			for _, b := range bad {
				if err := e.Push(pool, b.x); err == nil {
					t.Fatalf("%s sample accepted", b.name)
				}
				if d := differ(observe(e), before); d != "" {
					t.Fatalf("rejected %s sample moved the state: %s", b.name, d)
				}
			}
			if err := e.Push(pool, feed[tc.pushes]); err != nil {
				t.Fatal(err)
			}
			if got := e.Generation() - before.gen; got != tc.gens {
				t.Fatalf("admitted push advanced the generation by %d, want %d", got, tc.gens)
			}
			twin, err := New(n, tc.window, tc.rebuildEvery, ws.New())
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range feed {
				if err := twin.Push(pool, x); err != nil {
					t.Fatal(err)
				}
			}
			if d := differ(observe(e), observe(twin)); d != "" {
				t.Fatalf("engine diverges from its twin after the rejections: %s", d)
			}
		})
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
		if err := e.Push(pool, x); err != nil {
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
		if err := e.Push(pool, x); err != nil {
			t.Fatal(err)
		}
		c := k + 1
		if rebuilds[c] {
			before := make([]float64, n*n)
			bs := make([]float64, n)
			e.CopyState(before, bs)
			e.Rebuild(pool)
			after := make([]float64, n*n)
			as := make([]float64, n)
			e.CopyState(after, as)
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
	if err := e.Push(pool, ticks(22, n, 1)[0]); err != nil {
		t.Fatal(err)
	}
	e.Rebuild(pool)
	sim := snapshot(t, e)
	wantSim := batchWindow(t, e)
	if i := bitsEqual(sim.Data, wantSim.Data); i >= 0 {
		t.Fatalf("post-slide rebuild: sim[%d] differs", i)
	}
}
