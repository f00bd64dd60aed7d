// Package matrix provides the dense symmetric matrices used as similarity
// and dissimilarity inputs to filtered-graph construction, along with
// parallel Pearson-correlation computation for time-series data.
package matrix

import (
	"context"
	"fmt"
	"math"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// Sym is a dense symmetric n×n matrix stored in row-major full form. Full
// storage (rather than triangular) keeps the inner loops of TMFG gain
// computation branch-free and cache-friendly.
type Sym struct {
	N    int
	Data []float64 // len N*N, Data[i*N+j]
}

// NewSym returns a zero-initialized n×n symmetric matrix.
func NewSym(n int) *Sym {
	return &Sym{N: n, Data: make([]float64, n*n)}
}

// NewSymWS returns an n×n matrix whose backing array is drawn from the
// workspace; the contents are unspecified (callers overwrite every entry).
// Release returns the array when the matrix's lifetime is caller-controlled.
func NewSymWS(w *ws.Workspace, n int) *Sym {
	return &Sym{N: n, Data: w.Float64(n * n)}
}

// Release returns the matrix's backing array to the workspace. The matrix
// must not be used afterwards.
func (m *Sym) Release(w *ws.Workspace) {
	w.PutFloat64(m.Data)
	m.Data = nil
}

// At returns the (i, j) entry.
func (m *Sym) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set sets both (i, j) and (j, i) to v.
func (m *Sym) Set(i, j int, v float64) {
	m.Data[i*m.N+j] = v
	m.Data[j*m.N+i] = v
}

// Row returns a view of row i.
func (m *Sym) Row(i int) []float64 { return m.Data[i*m.N : (i+1)*m.N] }

// RowSum returns the sum of row i.
func (m *Sym) RowSum(i int) float64 {
	s := 0.0
	for _, v := range m.Row(i) {
		s += v
	}
	return s
}

// PearsonWS computes the n×n Pearson correlation matrix of the given series
// (each series[i] must have the same length ≥ 2, with finite values) on the
// given pool, honouring cancellation at chunk boundaries, with workspace
// scratch and a workspace-backed result.
//
// Degenerate inputs have pinned behavior: a zero-variance (constant) series
// correlates 0 with every other series and 1 with itself — it never yields
// NaN. Non-finite samples (NaN or ±Inf) are rejected with an error rather
// than silently poisoning downstream TMFG gain comparisons.
//
// Numerics. The pipeline works on raw moments — per-series rolling sums
// Σx and the raw cross-product band Σxᵢxⱼ computed by the register-tiled
// kernel.SyrkUpperRange — and centers in the finish pass, rather than
// z-normalizing up front. Every moment is an ascending-t fold with one
// rounding per step, so the result is independent of the worker count AND
// reproducible one sample at a time: the streaming engine (internal/stream)
// maintains the same moments by rank-1 updates and produces bit-identical
// correlations. The trade-off is the classic one for one-pass moment
// formulas: centering cancels |mean|/std of the significant digits, so a
// series with |mean|/std ≳ 1e6 falls under the relative zero-variance
// threshold (kernel.MomentVarEps) and is pinned as constant, and precision
// degrades gradually above |mean|/std ~ 1e4. Callers with large-offset,
// low-variance data (raw prices, absolute sensor readings) should subtract
// a per-series baseline before calling — for correlation the result is
// unchanged, and the cancellation disappears.
func PearsonWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, series [][]float64) (*Sym, error) {
	n := len(series)
	if n == 0 {
		return nil, fmt.Errorf("matrix: no series")
	}
	l := len(series[0])
	if l < 2 {
		return nil, fmt.Errorf("matrix: series length %d < 2", l)
	}
	for i, s := range series {
		if len(s) != l {
			return nil, fmt.Errorf("matrix: series %d has length %d, want %d", i, len(s), l)
		}
	}
	// Gather the rows into one flat backing array for the SYRK and fold the
	// per-series sums, validating finiteness on the way. The per-row flags
	// are int32 slots, not a bitset: parallel workers write them
	// concurrently, and bitset words would make neighbouring rows' writes
	// race.
	xback := w.Float64(n * l)
	defer w.PutFloat64(xback)
	sums := w.Float64(n)
	defer w.PutFloat64(sums)
	bad := w.Int32(n)
	defer w.PutInt32(bad)
	clear(bad)
	err := pool.ForGrain(ctx, n, 8, func(i int) {
		xi := xback[i*l : (i+1)*l]
		sum := 0.0
		ok := true
		for t, v := range series[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ok = false
			}
			xi[t] = v
			sum += v
		}
		sums[i] = sum
		if !ok {
			bad[i] = 1
		}
	})
	if err != nil {
		return nil, err
	}
	for i, b := range bad {
		if b != 0 {
			return nil, fmt.Errorf("matrix: series %d contains non-finite values", i)
		}
	}
	m := NewSymWS(w, n)
	// Raw upper-triangle cross products via the blocked SYRK, parallel over
	// row bands or T-panels — either way bit-deterministic (SyrkUpperWS).
	if err := SyrkUpperWS(ctx, pool, w, xback, n, l, l, m.Data); err != nil {
		m.Release(w)
		return nil, err
	}
	if err := FinishMomentsWS(ctx, pool, w, m, sums, l); err != nil {
		m.Release(w)
		return nil, err
	}
	return m, nil
}

// PearsonDissimWS computes the correlation matrix, then its metric
// dissimilarity √(2(1−p)) (DissimilarityWS). Both results are
// workspace-backed. The clustering pipelines need no dissimilarity matrix:
// DBHT and HAC derive the entries they read from the correlations.
func PearsonDissimWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, series [][]float64) (sim, dis *Sym, err error) {
	sim, err = PearsonWS(ctx, pool, w, series)
	if err != nil {
		return nil, nil, err
	}
	dis, err = DissimilarityWS(ctx, pool, w, sim)
	if err != nil {
		sim.Release(w)
		return nil, nil, err
	}
	return sim, dis, nil
}

// syrkPanelBudget caps the workspace floats spent on private per-panel bands
// by the T-panel-parallel SYRK strategy (64 MiB). Above it — i.e. for large
// n, where row bands already expose ample parallelism — the row-band
// strategy is used instead. The choice never affects output bits.
const syrkPanelBudget = 1 << 23

// SyrkUpperWS computes the full upper triangle of the n×n product
// c = Z·Zᵀ, where Z is n rows of l samples laid out ld apart
// (z[i*ld : i*ld+l]), parallelized on the pool. Two schedules are used:
// bands of rows (each band sequential over all panels), or T-panels (each
// worker computes one PanelLen-sample panel's partial band privately, then
// the partial bands fold into c in ascending panel order). Because every
// entry of the SYRK is defined as the ascending fold of per-panel ascending-t
// chains (see kernel.PanelLen), both schedules — and any worker count —
// produce bit-identical results; the choice is purely a performance
// heuristic: panel parallelism wins when n is small relative to the worker
// count but the window is long (many panels), the shape where row bands
// starve.
func SyrkUpperWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, z []float64, n, ld, l int, c []float64) error {
	panels := (l + kernel.PanelLen - 1) / kernel.PanelLen
	nb := panels - 1 // private bands needed beyond the direct-to-c panel 0
	if mb := syrkPanelBudget / max(n*n, 1); nb > mb {
		nb = mb
	}
	if wk := pool.Workers() - 1; nb > wk {
		nb = wk
	}
	if nb <= 0 || n >= 1024 {
		// RowBandGrain (not 8) so the vector backend's per-call panel
		// packing amortizes over tall bands; with one worker ForBlocked
		// runs bands of exactly the grain, so a small grain would repack
		// every panel n/grain times.
		return pool.ForBlocked(ctx, n, kernel.RowBandGrain, func(lo, hi int) {
			kernel.SyrkUpperRange(z, n, ld, c, lo, hi, 0, l, true)
		})
	}
	bufs := make([][]float64, nb)
	for i := range bufs {
		bufs[i] = w.Float64(n * n)
	}
	defer func() {
		for _, b := range bufs {
			w.PutFloat64(b)
		}
	}()
	for base := 0; base < panels; {
		// One wave: the first wave computes panel 0 straight into c plus up
		// to nb later panels into private bands; subsequent waves fill all nb
		// bands. Then the wave's bands fold into c in ascending panel order,
		// row-band parallel (disjoint rows, fixed per-entry add order).
		wave := min(nb, panels-base)
		first := base == 0
		if first {
			wave = min(nb+1, panels)
		}
		err := pool.ForGrain(ctx, wave, 1, func(q int) {
			p := base + q
			k0 := p * kernel.PanelLen
			k1 := min(k0+kernel.PanelLen, l)
			dst := c
			if !first || q > 0 {
				dst = bufs[q-boolToInt(first)]
			}
			kernel.SyrkUpperRange(z, n, ld, dst, 0, n, k0, k1, true)
		})
		if err != nil {
			return err
		}
		nfold := wave
		if first {
			nfold = wave - 1
		}
		if nfold > 0 {
			err = pool.ForBlocked(ctx, n, 8, func(lo, hi int) {
				for q := 0; q < nfold; q++ {
					kernel.AddUpper(c, bufs[q], n, lo, hi)
				}
			})
			if err != nil {
				return err
			}
		}
		base += wave
	}
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FinishMomentsWS converts raw moments into the final correlation matrix: on
// entry sim's upper triangle holds the cross products Σₜ xᵢ(t)·xⱼ(t) over t
// samples and sums[i] holds Σₜ xᵢ(t); on return sim is the finished
// correlation matrix (clamped, zero-variance pinned, unit diagonal,
// mirrored). This is the single canonical moments→correlation arithmetic:
// the batch Pearson path and the streaming engine both feed it, which is
// what makes streaming snapshots bit-identical to batch recomputation
// whenever their moments agree bit-for-bit.
func FinishMomentsWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, sim *Sym, sums []float64, t int) error {
	n := sim.N
	if t < 2 {
		return fmt.Errorf("matrix: %d samples < 2", t)
	}
	mu := w.Float64(n)
	defer w.PutFloat64(mu)
	inv := w.Float64(n)
	defer w.PutFloat64(inv)
	zero := w.Int32(n)
	defer w.PutInt32(zero)
	if bad := kernel.PrepPearsonMoments(sim.Data, n, sums, t, mu, inv, zero); bad >= 0 {
		return fmt.Errorf("matrix: series %d has non-finite moments (overflow)", bad)
	}
	return pool.ForBlocked(ctx, kernel.FinishTiles(n), 1, func(lo, hi int) {
		kernel.FinishPearsonMoments(sim.Data, n, sums, mu, inv, zero, lo, hi)
	})
}

// DissimilarityWS converts a correlation matrix into the metric
// dissimilarity d(i,j) = sqrt(2·(1−p(i,j))) used by the paper (Marti et
// al.). For normalized zero-mean vectors this equals the Euclidean distance.
// The result is drawn from w (nil allocates).
func DissimilarityWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, corr *Sym) (*Sym, error) {
	d := NewSymWS(w, corr.N)
	err := pool.ForGrain(ctx, corr.N, 16, func(i int) {
		kernel.DissimRow(d.Row(i), corr.Row(i))
	})
	if err != nil {
		d.Release(w)
		return nil, err
	}
	return d, nil
}

// EdgeWeightSum returns the sum of similarity-matrix entries over the given
// undirected edge list (each edge counted once).
func EdgeWeightSum(s *Sym, edges [][2]int32) float64 {
	total := 0.0
	for _, e := range edges {
		total += s.At(int(e[0]), int(e[1]))
	}
	return total
}
