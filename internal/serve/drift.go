package serve

import (
	"math"
	"net/http"
	"slices"

	"pfg"
	"pfg/internal/graph"
	"pfg/internal/obs"
)

// Structure drift: how much a session's clustering actually changes between
// consecutive computed generations — the signal that separates "the window
// moved" (every tick) from "the structure moved" (regime changes). When a
// clustering run publishes its record (cache.go), the record is compared
// against the record it replaces as current on two axes:
//
//   - labeling agreement: the adjusted Rand index between the two results'
//     flat cuts at the session's DriftCut (1 = identical clusterings,
//     ~0 = unrelated), computed with the same pfg.ARI the evaluation
//     harness uses;
//   - topology churn: the number of edges added plus removed between the
//     two filtered graphs, on canonicalized (lo < hi, sorted) edge lists —
//     0 for the HAC methods, which carry no graph.
//
// Both inputs belong to the records' references, so a hit compared against
// a record of its own reference reuses them (ARI 1, churn 0) instead of
// cutting and sorting again. The comparison runs once per generation, never
// per request, before the run's flight completes. It lands in server-level
// histograms (the ARI as 1e6 × (1 − ARI), so the log2 buckets resolve the
// interesting near-1 region) and in the record: the per-session gauges and
// the /driftz report read the current record's, and every SSE snapshot and
// delta frame of a generation embeds that generation's.

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

// driftCut is the flat-cut width drift is measured at: the session's
// drift_cut, or defaultDriftCut when unset, clamped to the n series.
func driftCut(cut, n int) int {
	if cut <= 0 {
		cut = defaultDriftCut
	}
	return min(cut, n)
}

// measureDrift compares rec against prev, the record it replaces as current,
// at the flat-cut width k, and records the comparison in the server-wide
// histograms.
func (s *Server) measureDrift(prev, rec *computed, k int) *StructureDrift {
	ari := labelARI(prev.ref.labels, rec.ref.labels)
	added, removed := edgeChurn(prev.ref.edges, rec.ref.edges)
	// Histogram the ARI as its distance from 1 in micros: the log2 buckets
	// then resolve 0.999999…0.9 instead of lumping everything into one
	// near-1 bin. Clamp pathological >1 to 0 distance.
	dist := (1 - ari) * 1e6
	if dist < 0 {
		dist = 0
	}
	s.ins.driftAri.Observe(uint64(dist))
	s.ins.driftChurn.Observe(uint64(added + removed))
	return &StructureDrift{
		FromGeneration: prev.gen,
		ARI:            ari,
		EdgesAdded:     added,
		EdgesRemoved:   removed,
		Cut:            k,
	}
}

// lastDrift is the current record's drift, or the zero record before two
// generations have been computed; the per-session gauges read it.
func (c *snapCache) lastDrift() StructureDrift {
	if rec := c.current(); rec != nil && rec.drift != nil {
		return *rec.drift
	}
	return StructureDrift{}
}

// labelARI is pfg.ARI hardened for drift: identical labelings are 1
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
		out.Sessions[i] = DriftzSession{ID: sess.ID}
		if rec := sess.cache.current(); rec != nil {
			out.Sessions[i].Generation, out.Sessions[i].Drift = rec.gen, rec.drift
		}
	}
	out.ARIDistanceMicros = obs.Summarize(s.ins.driftAri)
	out.EdgeChurn = obs.Summarize(s.ins.driftChurn)
	writeJSON(w, http.StatusOK, out)
}
