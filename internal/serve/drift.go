package serve

import (
	"math"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"pfg"
	"pfg/internal/graph"
	"pfg/internal/obs"
)

// Structure drift: how much a session's clustering actually changes between
// consecutive computed generations — the signal that separates "the window
// moved" (every tick) from "the structure moved" (regime changes). After
// each successful clustering run the tracker compares the new result against
// the previous computed generation on two axes:
//
//   - labeling agreement: the adjusted Rand index between the two results'
//     flat cuts at the session's DriftCut (1 = identical clusterings,
//     ~0 = unrelated), computed with the same pfg.ARI the evaluation
//     harness uses;
//   - topology churn: the number of edges added plus removed between the
//     two filtered graphs, on canonicalized (lo < hi, sorted) edge lists —
//     0 for the HAC methods, which carry no graph.
//
// Both land in server-level histograms (the ARI as 1e6 × (1 − ARI), so the
// log2 buckets resolve the interesting near-1 region), in per-session
// gauges, in the /driftz report, and as the drift field of SSE snapshot and
// delta frames. The comparison runs on the clustering run's goroutine —
// once per generation, never per request — before the run publishes, so
// every body built for a generation observes the same drift record.

// defaultDriftCut is the flat-cut width drift is measured at when the
// session does not set one.
const defaultDriftCut = 8

// StructureDrift is the wire form of one adjacent-generation comparison:
// how the clustering of Generation (the enclosing body's generation) differs
// from the previous computed generation's.
type StructureDrift struct {
	// FromGeneration is the previous computed generation the comparison is
	// against — the most recent clustering run before this one, which is not
	// necessarily Generation−1 when pushes outpace snapshots.
	FromGeneration uint64 `json:"from_generation"`
	// ARI is the adjusted Rand index between the two generations' flat cuts
	// at Cut clusters: 1 for identical labelings, near 0 for unrelated ones.
	ARI float64 `json:"ari"`
	// EdgesAdded and EdgesRemoved count the filtered-graph edges that
	// appeared and disappeared between the two generations (always 0 for
	// the HAC methods, which have no graph).
	EdgesAdded   int `json:"edges_added"`
	EdgesRemoved int `json:"edges_removed"`
	// Cut is the flat-cut width the ARI was measured at (drift_cut at
	// session create, clamped to the series count).
	Cut int `json:"cut"`
}

// DriftzSession is one session's entry in the /driftz report.
type DriftzSession struct {
	ID string `json:"id"`
	// Generation is the most recent computed generation (0 before the first
	// clustering run).
	Generation uint64 `json:"generation"`
	// Drift compares Generation against the computed generation before it;
	// absent until two generations have been clustered.
	Drift *StructureDrift `json:"drift,omitempty"`
}

// DriftzResponse is the body of GET /driftz: per-session last-drift records
// plus the server-wide drift distributions.
type DriftzResponse struct {
	Sessions []DriftzSession `json:"sessions"`
	// ARIDistanceMicros digests pfg_drift_ari_distance_micros: 1e6 × (1−ARI)
	// per adjacent-generation comparison, so p50 = 0 means the typical
	// generation leaves the clustering untouched.
	ARIDistanceMicros obs.Summary `json:"ari_distance_micros"`
	// EdgeChurn digests pfg_drift_edge_churn: filtered-graph edges added +
	// removed per comparison.
	EdgeChurn obs.Summary `json:"edge_churn"`
}

// driftTracker is one session's structure-drift state: the previous
// computed generation's labels and canonical edge list, and the last
// comparison. The mutex only ever contends clustering-run goroutines with
// /driftz readers and body builds — never the push or cached-GET paths.
type driftTracker struct {
	mu     sync.Mutex
	gen    uint64 // most recent computed generation (0 = none yet)
	labels []int
	edges  [][2]int32 // canonical: lo < hi, sorted
	last   StructureDrift
	have   bool

	// Gauge mirrors of the last comparison, read at scrape time.
	ariBits   atomic.Uint64 // math.Float64bits(last.ARI)
	churnEdge atomic.Uint64 // last.EdgesAdded + last.EdgesRemoved
}

func (t *driftTracker) lastARI() float64   { return math.Float64frombits(t.ariBits.Load()) }
func (t *driftTracker) lastChurn() float64 { return float64(t.churnEdge.Load()) }

// driftFor returns the drift record when gen is exactly the tracker's most
// recent computed generation, nil otherwise (first generation, or the
// tracker moved on). The returned pointer is a copy; callers may embed it in
// wire bodies.
func (t *driftTracker) driftFor(gen uint64) *StructureDrift {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.have || t.gen != gen {
		return nil
	}
	d := t.last
	return &d
}

// state returns the tracker's generation and last record for /driftz.
func (t *driftTracker) state() (uint64, *StructureDrift) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.have {
		return t.gen, nil
	}
	d := t.last
	return t.gen, &d
}

// noteStructure records a freshly computed clustering and, when a previous
// computed generation exists, measures the drift against it. Called on the
// clustering run's goroutine after SnapshotGen succeeds and before the run
// publishes its result, so the record is in place before any response body
// of that generation is built.
func (s *Server) noteStructure(sess *Session, res *pfg.Result, gen uint64) {
	k := sess.cfg.DriftCut
	if k <= 0 {
		k = defaultDriftCut
	}
	if n := res.Dendrogram.N; k > n {
		k = n
	}
	labels, err := res.Cut(k)
	if err != nil {
		return
	}
	edges := graph.CanonicalEdges(res.Edges)

	t := &sess.drift
	t.mu.Lock()
	defer t.mu.Unlock()
	// Runs can complete out of order when pushes race; keep the tracker
	// monotone so drift always compares forward in time.
	if t.gen >= gen && t.gen != 0 {
		return
	}
	if t.gen != 0 {
		ari := labelARI(t.labels, labels)
		added, removed := edgeChurn(t.edges, edges)
		t.last = StructureDrift{
			FromGeneration: t.gen,
			ARI:            ari,
			EdgesAdded:     added,
			EdgesRemoved:   removed,
			Cut:            k,
		}
		t.have = true
		t.ariBits.Store(math.Float64bits(ari))
		t.churnEdge.Store(uint64(added + removed))
		// Histogram the ARI as its distance from 1 in micros: the log2
		// buckets then resolve 0.999999…0.9 instead of lumping everything
		// into one near-1 bin. Clamp pathological >1 to 0 distance.
		dist := (1 - ari) * 1e6
		if dist < 0 {
			dist = 0
		}
		s.ins.driftAri.Observe(uint64(dist))
		s.ins.driftChurn.Observe(uint64(added + removed))
	}
	t.gen, t.labels, t.edges = gen, labels, edges
}

// labelARI is pfg.ARI hardened for the tracker: identical labelings are 1
// by definition (covering the degenerate single-cluster case, where the
// ARI's expected-index denominator vanishes), a shape mismatch or NaN is 0
// (maximal surprise — the structure is not comparable).
func labelARI(a, b []int) float64 {
	if slices.Equal(a, b) {
		return 1
	}
	ari, err := pfg.ARI(a, b)
	if err != nil || math.IsNaN(ari) {
		return 0
	}
	return ari
}

// edgeChurn merge-walks two canonical edge lists and counts the edges only
// in next (added) and only in prev (removed).
func edgeChurn(prev, next [][2]int32) (added, removed int) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch c := graph.CompareEdges(prev[i], next[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			removed++
			i++
		default:
			added++
			j++
		}
	}
	removed += len(prev) - i
	added += len(next) - j
	return added, removed
}

// handleDriftz is GET /driftz: the structure-drift report — each session's
// last adjacent-generation comparison plus the server-wide distributions.
func (s *Server) handleDriftz(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	out := DriftzResponse{Sessions: make([]DriftzSession, len(sessions))}
	for i, sess := range sessions {
		gen, d := sess.drift.state()
		out.Sessions[i] = DriftzSession{ID: sess.ID, Generation: gen, Drift: d}
	}
	out.ARIDistanceMicros = obs.Summarize(s.ins.driftAri)
	out.EdgeChurn = obs.Summarize(s.ins.driftChurn)
	writeJSON(w, http.StatusOK, out)
}
