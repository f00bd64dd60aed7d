package pfg

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"pfg/internal/kernel"
	"pfg/internal/obs"
	"pfg/internal/ws"
)

// incGate is a Streamer's incremental layer (see IncrementalOptions): the
// reference clustering, the correlations it was clustered from, and the gate
// counters. mu serializes the gate chain across concurrent snapshots.
type incGate struct {
	eps      float64 // DriftThreshold with its default applied
	maxStale int     // MaxStale with its default applied

	// The gate counters are written under mu but read without it, so
	// IncrementalStats never waits behind a refresh holding mu.
	hits, fullInit, fullBoundary, fullDrift, fullStale atomic.Uint64

	mu sync.Mutex
	// ref is the exact clustering of generation refGen, whose window held
	// refCount samples and finished to the correlations refCorr. It is nil
	// before the first refresh and after a failed one.
	ref      *Result
	refGen   uint64
	refCount int
	refCorr  []float64
}

func newIncGate(o IncrementalOptions) *incGate {
	g := &incGate{eps: o.DriftThreshold, maxStale: o.MaxStale}
	if g.eps == 0 {
		g.eps = 0.02
	}
	if g.maxStale == 0 {
		g.maxStale = 64
	}
	return g
}

// incSnapshot passes the moments a snapshot copied at generation gen through
// the gate chain — init/boundary, drift, staleness, hit — and either serves
// the reference or refreshes it through finishAndCluster. exact reports
// whether the engine's moments were exact at gen. sim and sums are consumed
// as finishAndCluster consumes them.
func (st *Streamer) incSnapshot(ctx context.Context, met *StreamerMetrics, sim *Matrix, sums []float64, count int, gen uint64, exact bool) (*Result, error) {
	g := st.inc
	g.mu.Lock()
	defer g.mu.Unlock()
	var sw obs.Stopwatch
	switch {
	case g.ref == nil:
		g.fullInit.Add(1)
	case exact || count != g.refCount || gen < g.refGen:
		// gen < refGen: another snapshot refreshed the reference at a newer
		// generation after these moments were copied; serving it would
		// answer for a window newer than the stamp.
		g.fullBoundary.Add(1)
	default:
		if met != nil {
			sw.Start()
		}
		drift, err := g.drift(st.w, sim, sums, count)
		if err != nil {
			return nil, err
		}
		if met != nil {
			sw.Lap(met.IncDrift)
		}
		stale := int(gen - g.refGen)
		switch {
		case drift > g.eps:
			g.fullDrift.Add(1)
		case g.maxStale > 0 && stale >= g.maxStale:
			g.fullStale.Add(1)
		default:
			g.hits.Add(1)
			return g.serve(stale, drift), nil
		}
	}
	if met != nil {
		sw.Start()
	}
	r, err := st.finishAndCluster(ctx, nil, sim, sums, count)
	if err != nil {
		g.ref = nil
		return nil, err
	}
	g.ref, g.refGen, g.refCount = r, gen, count
	g.refCorr = append(g.refCorr[:0], sim.Data...)
	if met != nil {
		sw.Lap(met.IncRefresh)
	}
	return g.serve(0, 0), nil
}

// drift measures ‖corr_now − corr_ref‖∞ straight from the copied moments,
// without finishing them into a matrix.
func (g *incGate) drift(w *ws.Workspace, sim *Matrix, sums []float64, count int) (float64, error) {
	n := sim.N
	mu, inv, zero := w.Float64(n), w.Float64(n), w.Int32(n)
	defer w.PutFloat64(mu)
	defer w.PutFloat64(inv)
	defer w.PutInt32(zero)
	if bad := kernel.PrepPearsonMoments(sim.Data, n, sums, count, mu, inv, zero); bad >= 0 {
		return 0, fmt.Errorf("pfg: series %d has non-finite moments (overflow)", bad)
	}
	return kernel.CorrDriftRows(sim.Data, n, sums, mu, inv, zero, g.refCorr, 0, n), nil
}

// serve returns an owned copy of the reference, stamped with its age and the
// measured drift.
func (g *incGate) serve(stale int, drift float64) *Result {
	r := *g.ref
	r.Dendrogram = &Dendrogram{N: r.Dendrogram.N, Merges: slices.Clone(r.Dendrogram.Merges)}
	r.Edges = slices.Clone(r.Edges)
	r.TicksSinceExact, r.Drift = stale, drift
	return &r
}
