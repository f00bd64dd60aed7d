// Package inc implements the incremental cross-tick clustering layer of the
// streaming engine: instead of re-clustering the rolling window from scratch
// on every snapshot, a Manager carries the previous exact clustering across
// ticks and serves it while the correlation matrix provably stays close to
// the state it was computed from.
//
// # Serving contract
//
// Every snapshot is classified by a gate chain, in order:
//
//  1. Boundary — the engine reports exact moments (window fill, or the tick
//     right after a periodic exact rebuild) or the Manager holds no
//     reference yet: the window is clustered exactly, the result becomes
//     the new reference, and the snapshot is that result. This preserves
//     the streamer's bit-identity guarantee at every exact boundary.
//  2. Drift — the entrywise deviation δ = ‖corr_now − corr_ref‖∞ is
//     measured straight from the rolling moments (no matrix
//     materialization; see kernel.CorrDriftRows). δ > DriftThreshold
//     forces an exact refresh.
//  3. Staleness — a reference older than MaxStale generations forces an
//     exact refresh regardless of drift.
//  4. Hit — the reference clustering is served (as an owned copy), stamped
//     with its staleness and the measured drift.
//
// An incremental snapshot therefore answers for a window at most MaxStale
// generations old whose correlation matrix differs from the current one by
// at most DriftThreshold per entry — and is bit-identical to the exact
// clustering of that reference window.
package inc

import (
	"context"
	"fmt"
	"sync"

	"pfg/internal/core"
	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/hac"
	"pfg/internal/kernel"
	"pfg/internal/matrix"
	"pfg/internal/obs"
	"pfg/internal/ws"
)

// Metrics is the gate chain's per-stage instrumentation. All stages may be
// nil (each no-ops); a nil *Metrics disables timing entirely.
type Metrics struct {
	// Drift covers the drift-gate measurement: moment prep plus the
	// entrywise deviation scan against the reference correlations.
	Drift *obs.Stage
	// Refresh covers exact refreshes: finishing the moments and the full
	// clustering run.
	Refresh *obs.Stage
}

// Kind selects the clustering pipeline the Manager runs.
type Kind int

const (
	// TMFGDBHT is the paper's TMFG + DBHT pipeline.
	TMFGDBHT Kind = iota
	// HACLinkage is hierarchical agglomerative clustering with Config.Linkage.
	HACLinkage
)

// Default gate parameters (see Config).
const (
	DefaultDriftThreshold = 0.02
	DefaultMaxStale       = 64
)

// Config parameterizes a Manager. The zero value of the gate knobs selects
// the documented defaults; Kind, Prefix, and Linkage must match the
// streamer's clustering options.
type Config struct {
	Kind    Kind
	Prefix  int         // TMFG batch size (TMFGDBHT only)
	Linkage hac.Linkage // HACLinkage only

	// DriftThreshold is ε of the serving contract: the largest entrywise
	// correlation deviation from the reference that may still be served
	// incrementally. 0 selects DefaultDriftThreshold; negative values force
	// an exact refresh on every tick (useful for tests).
	DriftThreshold float64
	// MaxStale bounds how many generations a reference may be served before
	// an exact refresh, independent of drift. 0 selects DefaultMaxStale;
	// negative disables the staleness gate.
	MaxStale int
}

func (c Config) withDefaults() Config {
	if c.DriftThreshold == 0 {
		c.DriftThreshold = DefaultDriftThreshold
	}
	if c.MaxStale == 0 {
		c.MaxStale = DefaultMaxStale
	}
	return c
}

// Outcome is one served snapshot. The slices are owned by the caller.
type Outcome struct {
	Dendrogram    *dendro.Dendrogram
	Edges         [][2]int32
	EdgeWeightSum float64
	Groups        int

	// Exact reports whether this outcome was clustered from the snapshot's
	// own window state (gate 1–3 refresh) rather than served from the
	// reference.
	Exact bool
	// Stale is the age of the serving reference in generations (0 when
	// Exact).
	Stale int
	// Drift is the measured ‖corr_now − corr_ref‖∞ at serve time (0 when
	// Exact: the reference is the current window).
	Drift float64
}

// Stats counts gate outcomes since the Manager was created. Fulls is the
// total number of exact refreshes; the FullX fields break it down by the
// gate that forced it and sum to Fulls.
type Stats struct {
	Hits         uint64 // served from the reference
	Fulls        uint64 // exact refreshes, total
	FullInit     uint64 // no reference yet (first snapshot, shape change)
	FullBoundary uint64 // engine-exact boundary (fill or post-rebuild)
	FullDrift    uint64 // drift gate exceeded
	FullStale    uint64 // staleness gate exceeded
}

// Manager carries one streamer's clustering reference across ticks and
// decides, per snapshot, between serving it and refreshing it. Snapshot
// calls are serialized by the Manager's own mutex; the caller may invoke it
// from concurrent snapshot goroutines.
type Manager struct {
	cfg Config

	mu    sync.Mutex
	n     int
	stats Stats
	met   *Metrics // per-stage timing, nil = uninstrumented

	// Reference state: the finished correlation matrix at generation
	// refGen and the exact clustering computed from it.
	have     bool
	refGen   uint64
	refCount int
	refCorr  []float64
	dnd      *dendro.Dendrogram
	edges    [][2]int32
	ews      float64
	groups   int

	// Per-tick scratch, sized on first use and reused for the Manager's
	// lifetime.
	mub, invb []float64
	zerob     []int32
}

// NewManager creates a Manager with the given configuration (zero gate
// knobs select the package defaults).
func NewManager(cfg Config) *Manager {
	return &Manager{cfg: cfg.withDefaults()}
}

// SetMetrics installs (or, with nil, removes) per-stage timing.
func (m *Manager) SetMetrics(met *Metrics) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.met = met
}

// Stats returns a snapshot of the gate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// Snapshot serves one tick. sim holds the raw rolling cross-product moments
// (the engine's upper band mirrored into a full matrix is not required —
// only rows' upper triangles are read before finishing) and sums the
// per-series rolling sums, both owned by the caller and consumed: on a
// refresh the moments are finished into correlations in place. count is the
// number of samples in the window, gen the engine generation the state was
// copied at, and engExact whether the engine guarantees those moments are
// bit-identical to a batch recomputation (fill or post-rebuild).
func (m *Manager) Snapshot(ctx context.Context, pool *exec.Pool, w *ws.Workspace, sim *matrix.Sym, sums []float64, count int, gen uint64, engExact bool) (*Outcome, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := sim.N
	if m.n != 0 && m.n != n {
		// Shape changed: drop the reference and start over.
		m.have = false
	}
	m.n = n

	if !m.have || engExact || count != m.refCount {
		if !m.have {
			m.stats.FullInit++
		} else {
			m.stats.FullBoundary++
		}
		return m.refresh(ctx, pool, w, sim, sums, count, gen)
	}

	// Drift gate, measured straight from the moments.
	var sw obs.Stopwatch
	if m.met != nil {
		sw.Start()
	}
	m.grow(n)
	if bad := kernel.PrepPearsonMoments(sim.Data, n, sums, count, m.mub, m.invb, m.zerob); bad >= 0 {
		return nil, fmt.Errorf("inc: series %d has non-finite moments (overflow)", bad)
	}
	drift := kernel.CorrDriftRows(sim.Data, n, sums, m.mub, m.invb, m.zerob, m.refCorr, 0, n)
	if m.met != nil {
		sw.Lap(m.met.Drift)
	}
	stale := int(gen - m.refGen)
	if drift > m.cfg.DriftThreshold {
		m.stats.FullDrift++
		return m.refresh(ctx, pool, w, sim, sums, count, gen)
	}
	if m.cfg.MaxStale > 0 && stale >= m.cfg.MaxStale {
		m.stats.FullStale++
		return m.refresh(ctx, pool, w, sim, sums, count, gen)
	}

	m.stats.Hits++
	return m.serve(false, stale, drift), nil
}

// grow (re)sizes the per-tick moment scratch.
func (m *Manager) grow(n int) {
	if cap(m.mub) < n {
		m.mub = make([]float64, n)
		m.invb = make([]float64, n)
		m.zerob = make([]int32, n)
	}
	m.mub, m.invb, m.zerob = m.mub[:n], m.invb[:n], m.zerob[:n]
}

// refresh finishes the moments in sim into correlations (in place) and
// dissimilarities, clusters the current window exactly, installs it as the
// new reference, and serves it.
func (m *Manager) refresh(ctx context.Context, pool *exec.Pool, w *ws.Workspace, sim *matrix.Sym, sums []float64, count int, gen uint64) (*Outcome, error) {
	m.stats.Fulls++
	var sw obs.Stopwatch
	if m.met != nil {
		sw.Start()
	}
	n := sim.N
	dis := matrix.NewSymWS(w, n)
	if err := matrix.FinishMomentsWS(ctx, pool, w, sim, dis, sums, count); err != nil {
		dis.Release(w)
		return nil, err
	}
	var (
		r   *core.Result
		err error
	)
	switch m.cfg.Kind {
	case TMFGDBHT:
		r, err = core.TMFGDBHTWS(ctx, pool, w, sim, dis, m.cfg.Prefix)
	case HACLinkage:
		r, err = core.HACWS(ctx, pool, w, dis, m.cfg.Linkage)
	default:
		err = fmt.Errorf("inc: unknown kind %d", int(m.cfg.Kind))
	}
	dis.Release(w)
	if err != nil {
		m.have = false
		return nil, err
	}
	if cap(m.refCorr) < n*n {
		m.refCorr = make([]float64, n*n)
	}
	m.refCorr = m.refCorr[:n*n]
	copy(m.refCorr, sim.Data)
	m.have = true
	m.refGen = gen
	m.refCount = count
	m.dnd = r.Dendrogram
	m.edges = r.Edges
	m.ews = r.EdgeWeightSum
	m.groups = r.Groups
	if m.met != nil {
		sw.Lap(m.met.Refresh)
	}
	return m.serve(true, 0, 0), nil
}

// serve returns an owned copy of the reference clustering.
func (m *Manager) serve(exact bool, stale int, drift float64) *Outcome {
	out := &Outcome{
		Dendrogram:    &dendro.Dendrogram{N: m.dnd.N, Merges: append([]dendro.Merge(nil), m.dnd.Merges...)},
		EdgeWeightSum: m.ews,
		Groups:        m.groups,
		Exact:         exact,
		Stale:         stale,
		Drift:         drift,
	}
	if m.edges != nil {
		out.Edges = append([][2]int32(nil), m.edges...)
	}
	return out
}
