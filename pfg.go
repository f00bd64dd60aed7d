package pfg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"

	"pfg/internal/ckpt"
	"pfg/internal/core"
	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/hac"
	"pfg/internal/kernel"
	"pfg/internal/matrix"
	"pfg/internal/metrics"
	"pfg/internal/obs"
	"pfg/internal/stream"
	"pfg/internal/tmfg"
	"pfg/internal/ws"
)

// Matrix is a dense symmetric matrix (similarities or dissimilarities).
type Matrix = matrix.Sym

// Dendrogram is a hierarchical clustering tree; leaves are the input
// objects and Cut(k) produces flat clusterings.
type Dendrogram = dendro.Dendrogram

// Method selects the clustering algorithm for Cluster.
type Method int

const (
	// TMFGDBHT is the paper's method: parallel TMFG + parallel DBHT.
	TMFGDBHT Method = iota
	// PMFGDBHT is the slower PMFG-based baseline.
	PMFGDBHT
	// CompleteLinkage is complete-linkage HAC on the dissimilarity matrix.
	CompleteLinkage
	// AverageLinkage is average-linkage HAC on the dissimilarity matrix.
	AverageLinkage
)

// MinSeries returns the smallest number of series the method can cluster:
// 2 for the HAC linkages, 4 for the filtered-graph methods (a TMFG/PMFG
// starts from a 4-clique). Serving layers use it to distinguish "not enough
// data yet" from genuine errors.
func (m Method) MinSeries() int {
	switch m {
	case CompleteLinkage, AverageLinkage:
		return 2
	default:
		return 4
	}
}

func (m Method) String() string {
	switch m {
	case TMFGDBHT:
		return "tmfg-dbht"
	case PMFGDBHT:
		return "pmfg-dbht"
	case CompleteLinkage:
		return "complete-linkage"
	case AverageLinkage:
		return "average-linkage"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures Cluster.
type Options struct {
	// Method selects the algorithm (default TMFGDBHT).
	Method Method
	// Prefix is the TMFG batch size, the most vertices inserted per round
	// (default 10, the paper's sweet spot; 1 reproduces the sequential TMFG
	// exactly). Larger prefixes need fewer rounds and keep a little less
	// edge weight; face gains are recomputed lazily, so a small prefix
	// builds no slower than a large one.
	Prefix int
	// Workers bounds the number of goroutines the call may run concurrently
	// (0 = GOMAXPROCS, via a shared process-wide pool). A positive value
	// gives the call its own bounded worker pool, so concurrent Cluster
	// calls with explicit budgets cannot oversubscribe the machine; 1 runs
	// the whole pipeline sequentially and deterministically on the calling
	// goroutine.
	Workers int
}

// Result is a hierarchical clustering outcome.
type Result struct {
	// Dendrogram is the full merge tree.
	Dendrogram *Dendrogram
	// EdgeWeightSum is the similarity captured by the filtered graph
	// (0 for non-graph methods).
	EdgeWeightSum float64
	// Groups is the number of DBHT converging-bubble groups (0 for HAC).
	Groups int
	// Edges lists the filtered graph's undirected edges (3n−6 of them for
	// TMFG/PMFG) in insertion order; nil for the HAC methods. The slice is
	// owned by the Result.
	Edges [][2]int32
	// TicksSinceExact is the age, in window generations, of the exact
	// clustering this result was served from. It is 0 for batch results and
	// for snapshots clustered from their own window state, and positive only
	// for incremental streaming snapshots (see StreamOptions.Incremental),
	// which serve the most recent exact clustering while the window stays
	// within the drift bound.
	TicksSinceExact int
	// Drift is the measured entrywise deviation ‖corr_now − corr_ref‖∞
	// between the current window's correlation matrix and the one this
	// result was clustered from. It is 0 whenever TicksSinceExact is 0 and
	// at most the configured drift threshold otherwise.
	Drift float64
}

// Cut returns flat cluster labels in [0, k).
func (r *Result) Cut(k int) ([]int, error) { return r.Dendrogram.Cut(k) }

// Newick serializes the dendrogram in Newick format, with optional leaf
// names (nil for L0, L1, ...).
func (r *Result) Newick(names []string) (string, error) { return r.Dendrogram.Newick(names) }

// CopheneticCorrelation measures how faithfully the dendrogram's merge
// heights reproduce the given dissimilarities (1 = perfect). Note that DBHT
// heights are ordinal by design, so this is most meaningful for the HAC
// methods. dis is validated as ClusterMatrix validates it: a nil matrix, a
// backing slice that is not n×n long or a non-finite entry returns an
// error.
func (r *Result) CopheneticCorrelation(dis *Matrix) (float64, error) {
	if err := validateMatrix("dissimilarity", dis); err != nil {
		return 0, err
	}
	return r.Dendrogram.CopheneticCorrelation(dis.Data)
}

// ResultJSON is the stable JSON wire form of a Result, shared by the
// pfg-serve HTTP API and pfg-cluster's -json output. Field names and
// encodings are a compatibility surface: edges are canonicalized (u < v,
// lexicographically sorted) so the same clustering always serializes to the
// same bytes regardless of construction order, and cut labels are keyed by
// the decimal cluster count (JSON object keys are strings). A marshaled
// ResultJSON round-trips through encoding/json unchanged.
type ResultJSON struct {
	// N is the number of clustered objects (dendrogram leaves).
	N int `json:"n"`
	// EdgeWeightSum is the similarity captured by the filtered graph
	// (0 for the HAC methods).
	EdgeWeightSum float64 `json:"edge_weight_sum"`
	// Groups is the number of DBHT converging-bubble groups (0 for HAC).
	Groups int `json:"groups"`
	// Edges lists the filtered graph's 3n−6 undirected edges in canonical
	// order; omitted for the HAC methods.
	Edges [][2]int32 `json:"edges,omitempty"`
	// Newick is the full dendrogram in Newick format.
	Newick string `json:"newick"`
	// Cuts maps a requested cluster count (decimal string) to flat labels
	// in [0, k); omitted when no cuts were requested.
	Cuts map[string][]int `json:"cuts,omitempty"`
	// StaleTicks is Result.TicksSinceExact; omitted (0) for exact results,
	// so pre-incremental serializations are byte-identical.
	StaleTicks int `json:"stale_ticks,omitempty"`
	// Drift is Result.Drift; omitted (0) for exact results.
	Drift float64 `json:"drift,omitempty"`
}

// JSON builds the stable wire view of the result: the Newick tree (with
// optional leaf names, nil for L0, L1, ...), the canonicalized
// filtered-graph edge list, and flat labels at each requested cut. An
// invalid cut (k < 1 or k > n) fails the whole view rather than silently
// dropping the entry.
func (r *Result) JSON(cuts []int, names []string) (*ResultJSON, error) {
	nwk, err := r.Newick(names)
	if err != nil {
		return nil, err
	}
	v := &ResultJSON{
		N:             r.Dendrogram.N,
		EdgeWeightSum: r.EdgeWeightSum,
		Groups:        r.Groups,
		Newick:        nwk,
		StaleTicks:    r.TicksSinceExact,
		Drift:         r.Drift,
		Edges:         graph.CanonicalEdges(r.Edges),
	}
	if len(cuts) > 0 {
		v.Cuts = make(map[string][]int, len(cuts))
		for _, k := range cuts {
			labels, err := r.Cut(k)
			if err != nil {
				return nil, err
			}
			v.Cuts[strconv.Itoa(k)] = labels
		}
	}
	return v, nil
}

// ResultDeltaVersion is the format version stamped into every
// ResultDeltaJSON (the "v" field). Consumers must reject versions they do
// not understand instead of guessing.
const ResultDeltaVersion = 1

// ResultDeltaJSON is the versioned delta wire form between two ResultJSON
// views of the same session — typically consecutive served generations of a
// streaming window, where label moves and filtered-graph edge churn per tick
// are small. It is designed for exact reconstruction: applying a delta to
// the base view it was computed from (ApplyDelta) yields a view that
// marshals byte-identically to the full next view, so push-based serving
// layers can fan out tiny deltas instead of full snapshot bodies without
// weakening any bit-level guarantee.
//
// Scalars (edge weight, group count, staleness) are carried as absolute
// values — they are a few bytes either way. Structural fields are sparse:
// edge changes against the canonical sorted edge list, label reassignments
// as index→label pairs per cut, and the Newick tree only when it changed at
// all (heights included — DBHT heights are ordinal, so a topologically
// stable tick usually changes nothing).
type ResultDeltaJSON struct {
	// V is the delta format version (ResultDeltaVersion).
	V int `json:"v"`
	// N is the number of clustered objects; it must match the base view's.
	N int `json:"n"`
	// EdgeWeightSum and Groups are the next view's absolute values.
	EdgeWeightSum float64 `json:"edge_weight_sum"`
	Groups        int     `json:"groups"`
	// EdgesAdded and EdgesRemoved transform the base view's canonical
	// (u < v, lexicographically sorted) edge list into the next view's; both
	// lists are themselves in canonical order.
	EdgesAdded   [][2]int32 `json:"edges_added,omitempty"`
	EdgesRemoved [][2]int32 `json:"edges_removed,omitempty"`
	// Newick is the next view's full tree, present only when it differs from
	// the base view's (an empty string means "unchanged" — a real Newick
	// serialization is never empty).
	Newick string `json:"newick,omitempty"`
	// CutMoves maps a cut's decimal cluster count to the sparse label
	// reassignments [index, newLabel] at that cut, in ascending index order.
	// Cuts whose labels did not change are absent; the base and next views
	// must carry identical cut-key sets.
	CutMoves map[string][][2]int `json:"cut_moves,omitempty"`
	// StaleTicks and Drift are the next view's absolute staleness metadata.
	StaleTicks int     `json:"stale_ticks,omitempty"`
	Drift      float64 `json:"drift,omitempty"`
}

// Delta computes the sparse delta that transforms the receiver (the base
// view) into next. The two views must be comparable: same object count,
// same method family (both with or both without a filtered-graph edge
// list), and identical cut-key sets; a serving layer holding two views
// that are not sends the full view instead. The receiver and next are not
// mutated and may be shared.
func (r *ResultJSON) Delta(next *ResultJSON) (*ResultDeltaJSON, error) {
	if next.N != r.N {
		return nil, fmt.Errorf("pfg: delta base has n=%d, next has n=%d", r.N, next.N)
	}
	if (r.Edges == nil) != (next.Edges == nil) {
		return nil, fmt.Errorf("pfg: delta base and next disagree on having a filtered-graph edge list")
	}
	if len(r.Cuts) != len(next.Cuts) {
		return nil, fmt.Errorf("pfg: delta base has %d cuts, next has %d", len(r.Cuts), len(next.Cuts))
	}
	d := &ResultDeltaJSON{
		V:             ResultDeltaVersion,
		N:             next.N,
		EdgeWeightSum: next.EdgeWeightSum,
		Groups:        next.Groups,
		StaleTicks:    next.StaleTicks,
		Drift:         next.Drift,
	}
	if next.Newick != r.Newick {
		d.Newick = next.Newick
	}
	// Both edge lists are canonically sorted (a ResultJSON invariant), so
	// one merge walk yields both change lists in canonical order.
	i, j := 0, 0
	for i < len(r.Edges) && j < len(next.Edges) {
		switch graph.CompareEdges(r.Edges[i], next.Edges[j]) {
		case 0:
			i++
			j++
		case -1:
			d.EdgesRemoved = append(d.EdgesRemoved, r.Edges[i])
			i++
		default:
			d.EdgesAdded = append(d.EdgesAdded, next.Edges[j])
			j++
		}
	}
	d.EdgesRemoved = append(d.EdgesRemoved, r.Edges[i:]...)
	d.EdgesAdded = append(d.EdgesAdded, next.Edges[j:]...)
	for k, nextLabels := range next.Cuts {
		baseLabels, ok := r.Cuts[k]
		if !ok {
			return nil, fmt.Errorf("pfg: delta next has cut %q, base does not", k)
		}
		if len(baseLabels) != len(nextLabels) {
			return nil, fmt.Errorf("pfg: cut %q has %d labels in base, %d in next", k, len(baseLabels), len(nextLabels))
		}
		var moves [][2]int
		for idx, l := range nextLabels {
			if baseLabels[idx] != l {
				moves = append(moves, [2]int{idx, l})
			}
		}
		if moves != nil {
			if d.CutMoves == nil {
				d.CutMoves = make(map[string][][2]int)
			}
			d.CutMoves[k] = moves
		}
	}
	return d, nil
}

// ApplyDelta reconstructs the next view from the receiver (the base view the
// delta was computed from) and the delta: the returned view marshals
// byte-identically to the full next view. The receiver is not mutated;
// unchanged slices are shared with it, so treat both views as immutable. A
// delta that does not belong to this base (version or shape mismatch, an
// edge list out of canonical order or range, more removals than base edges,
// an edge removal or cut move that does not apply cleanly) is an error —
// the caller should refetch a full snapshot rather than guess.
func (r *ResultJSON) ApplyDelta(d *ResultDeltaJSON) (*ResultJSON, error) {
	if d.V != ResultDeltaVersion {
		return nil, fmt.Errorf("pfg: unknown delta version %d (want %d)", d.V, ResultDeltaVersion)
	}
	if d.N != r.N {
		return nil, fmt.Errorf("pfg: delta is for n=%d, base has n=%d", d.N, r.N)
	}
	out := &ResultJSON{
		N:             r.N,
		EdgeWeightSum: d.EdgeWeightSum,
		Groups:        d.Groups,
		Newick:        r.Newick,
		StaleTicks:    d.StaleTicks,
		Drift:         d.Drift,
	}
	if d.Newick != "" {
		out.Newick = d.Newick
	}
	out.Edges = r.Edges
	if len(d.EdgesAdded) > 0 || len(d.EdgesRemoved) > 0 {
		if r.Edges == nil {
			return nil, fmt.Errorf("pfg: delta carries edge changes, base has no edge list")
		}
		if len(d.EdgesRemoved) > len(r.Edges) {
			return nil, fmt.Errorf("pfg: delta removes %d edges, base has %d", len(d.EdgesRemoved), len(r.Edges))
		}
		if err := checkDeltaEdges("edges_added", d.EdgesAdded, r.N); err != nil {
			return nil, err
		}
		if err := checkDeltaEdges("edges_removed", d.EdgesRemoved, r.N); err != nil {
			return nil, err
		}
		kept := make([][2]int32, 0, len(r.Edges)-len(d.EdgesRemoved)+len(d.EdgesAdded))
		ri := 0
		for _, e := range r.Edges {
			if ri < len(d.EdgesRemoved) && d.EdgesRemoved[ri] == e {
				ri++
				continue
			}
			kept = append(kept, e)
		}
		if ri != len(d.EdgesRemoved) {
			return nil, fmt.Errorf("pfg: delta removes edge %v not present in the base", d.EdgesRemoved[ri])
		}
		// Merge the added edges back in canonical order; a duplicate means
		// the delta does not belong to this base.
		merged := make([][2]int32, 0, len(kept)+len(d.EdgesAdded))
		ai := 0
		for _, e := range kept {
			for ai < len(d.EdgesAdded) && graph.CompareEdges(d.EdgesAdded[ai], e) < 0 {
				merged = append(merged, d.EdgesAdded[ai])
				ai++
			}
			if ai < len(d.EdgesAdded) && d.EdgesAdded[ai] == e {
				return nil, fmt.Errorf("pfg: delta adds edge %v already present in the base", e)
			}
			merged = append(merged, e)
		}
		merged = append(merged, d.EdgesAdded[ai:]...)
		out.Edges = merged
	}
	out.Cuts = r.Cuts
	if len(d.CutMoves) > 0 {
		out.Cuts = make(map[string][]int, len(r.Cuts))
		for k, labels := range r.Cuts {
			out.Cuts[k] = labels
		}
		for k, moves := range d.CutMoves {
			base, ok := r.Cuts[k]
			if !ok {
				return nil, fmt.Errorf("pfg: delta moves labels of cut %q, base does not have it", k)
			}
			labels := slices.Clone(base)
			for _, mv := range moves {
				if mv[0] < 0 || mv[0] >= len(labels) {
					return nil, fmt.Errorf("pfg: delta cut %q moves index %d out of range [0,%d)", k, mv[0], len(labels))
				}
				labels[mv[0]] = mv[1]
			}
			out.Cuts[k] = labels
		}
	}
	return out, nil
}

// checkDeltaEdges requires a delta edge list to be in canonical order —
// strictly increasing under graph.CompareEdges — with every pair
// 0 ≤ u < v < n.
func checkDeltaEdges(field string, edges [][2]int32, n int) error {
	for i, e := range edges {
		if e[0] < 0 || e[0] >= e[1] || int(e[1]) >= n {
			return fmt.Errorf("pfg: delta %s has edge %v outside 0 ≤ u < v < %d", field, e, n)
		}
		if i > 0 && graph.CompareEdges(edges[i-1], e) >= 0 {
			return fmt.Errorf("pfg: delta %s is not strictly increasing at edge %v", field, e)
		}
	}
	return nil
}

// Pearson computes the Pearson correlation matrix of a time-series
// collection (one row per series, equal lengths).
func Pearson(series [][]float64) (*Matrix, error) {
	w := ws.Get()
	defer ws.Put(w)
	return matrix.PearsonWS(context.Background(), exec.Default(), w, series)
}

// Dissimilarity converts correlations into the metric dissimilarity
// d = sqrt(2(1−p)). corr is validated as ClusterMatrix validates a
// similarity it derives from: a nil matrix, a backing slice that is not n×n
// long, a non-finite entry or one whose dissimilarity overflows returns an
// error.
func Dissimilarity(corr *Matrix) (*Matrix, error) {
	if err := validateMatrix("correlation", corr); err != nil {
		return nil, err
	}
	if err := validateDerivable("correlation", corr); err != nil {
		return nil, err
	}
	d := matrix.NewSym(corr.N)
	kernel.DissimRow(d.Data, corr.Data)
	return d, nil
}

// Cluster computes a hierarchical clustering of raw time series: Pearson
// correlation → filtered graph (or HAC) → dendrogram. It is
// ClusterContext with a background (never-cancelled) context.
func Cluster(series [][]float64, opts Options) (*Result, error) {
	return ClusterContext(context.Background(), series, opts)
}

// ClusterContext is Cluster with cooperative cancellation: the pipeline
// checks ctx at chunk and stage boundaries and returns ctx.Err() promptly
// once ctx is cancelled or its deadline passes. The concurrency of the call
// is bounded by opts.Workers (see Options).
//
// Each call owns one ws.Workspace from the process-wide pool: every
// intermediate of the pipeline (the correlation matrix, the filtered graph,
// APSP, and all scratch) is drawn from it and returned before the call
// ends, so repeated calls on same-shaped inputs run at steady state with
// near-zero allocation churn.
func ClusterContext(ctx context.Context, series [][]float64, opts Options) (*Result, error) {
	// Reject invalid options and undersized inputs before the O(n²·T)
	// correlation stage runs.
	if err := validateOptions(len(series), opts); err != nil {
		return nil, err
	}
	pool, release := poolFor(opts)
	defer release()
	w := ws.Get()
	defer ws.Put(w)
	sim, err := matrix.PearsonWS(ctx, pool, w, series)
	if err != nil {
		return nil, err
	}
	r, err := clusterMatrixOn(ctx, pool, w, sim, nil, opts)
	// The matrix is internal to this call; nothing in Result references it.
	sim.Release(w)
	return r, err
}

// ClusterMatrix clusters from a precomputed similarity matrix and optional
// dissimilarity matrix. Both must be n×n with finite entries. TMFGDBHT and
// PMFGDBHT run shortest paths over the dissimilarities, so for them a
// negative off-diagonal dissimilarity is also rejected with an error naming
// the entry.
//
// With a nil dis, each method derives sqrt(2(1−s)) where it reads it: HAC
// over every entry of sim, the DBHT methods over the filtered graph's edges
// only. The graph stores one similarity per edge, so both directions of an
// edge get the same dissimilarity; for a sim that is not symmetric (outside
// Matrix's contract) they no longer read separate triangles as they do from
// a passed dis. A similarity below about −MaxFloat64/2, whose dissimilarity
// overflows to +Inf, is then rejected with an error naming the entry, as
// Dissimilarity rejects it.
func ClusterMatrix(sim, dis *Matrix, opts Options) (*Result, error) {
	return ClusterMatrixContext(context.Background(), sim, dis, opts)
}

// ClusterMatrixContext is ClusterMatrix with cooperative cancellation and a
// per-call worker budget, like ClusterContext. The caller keeps ownership
// of sim and dis; only the call's internal scratch is pooled.
//
// Because the matrices come from the caller rather than from Pearson (whose
// outputs are finite by construction), they are validated up front: shape
// mismatches, non-finite entries and, for the DBHT methods, negative
// off-diagonal dissimilarities return an error instead of poisoning gain
// comparisons (or panicking) deep inside a pipeline stage.
func ClusterMatrixContext(ctx context.Context, sim, dis *Matrix, opts Options) (*Result, error) {
	if err := validateMatrix("similarity", sim); err != nil {
		return nil, err
	}
	if dis == nil {
		if err := validateDerivable("similarity", sim); err != nil {
			return nil, err
		}
	} else {
		if err := validateMatrix("dissimilarity", dis); err != nil {
			return nil, err
		}
		if dis.N != sim.N {
			return nil, fmt.Errorf("pfg: dissimilarity matrix is %d×%d, similarity is %d×%d", dis.N, dis.N, sim.N, sim.N)
		}
		if opts.Method == TMFGDBHT || opts.Method == PMFGDBHT {
			for i, v := range dis.Data {
				if v < 0 && i/dis.N != i%dis.N {
					return nil, fmt.Errorf("pfg: dissimilarity matrix entry (%d,%d) is negative (%v); %v needs non-negative shortest-path weights", i/dis.N, i%dis.N, v, opts.Method)
				}
			}
		}
	}
	pool, release := poolFor(opts)
	defer release()
	w := ws.Get()
	defer ws.Put(w)
	return clusterMatrixOn(ctx, pool, w, sim, dis, opts)
}

// validateMatrix rejects malformed caller-provided matrices: wrong backing
// length (which would panic on indexing) and non-finite entries (which
// silently corrupt ordering-based stages).
func validateMatrix(name string, m *Matrix) error {
	if m == nil {
		return fmt.Errorf("pfg: nil %s matrix", name)
	}
	if m.N < 0 || len(m.Data) != m.N*m.N {
		return fmt.Errorf("pfg: %s matrix has %d entries, want n²=%d", name, len(m.Data), m.N*m.N)
	}
	for i, v := range m.Data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("pfg: %s matrix entry (%d,%d) is non-finite", name, i/m.N, i%m.N)
		}
	}
	return nil
}

// validateDerivable rejects a finite similarity whose dissimilarity
// sqrt(2(1−s)) is +Inf: below about −MaxFloat64/2, 2(1−s) overflows.
func validateDerivable(name string, m *Matrix) error {
	for i, v := range m.Data {
		if math.IsInf(2*(1-v), 1) {
			return fmt.Errorf("pfg: %s matrix entry (%d,%d) = %v has no finite dissimilarity sqrt(2(1−s))", name, i/m.N, i%m.N, v)
		}
	}
	return nil
}

// poolFor maps Options.Workers to an execution pool: the shared
// GOMAXPROCS-sized pool for 0, or a fresh bounded pool (released when the
// call finishes) for an explicit budget.
func poolFor(opts Options) (*exec.Pool, func()) {
	if opts.Workers <= 0 {
		return exec.Default(), func() {}
	}
	p := exec.New(opts.Workers)
	return p, p.Close
}

// validateOptions rejects invalid options and inputs too small for the
// selected method with a clear error, instead of a panic deep inside a
// pipeline stage (or wasted work before a later rejection).
func validateOptions(n int, opts Options) error {
	if opts.Prefix < 0 {
		return fmt.Errorf("pfg: Prefix must be ≥ 0 (0 selects the default), got %d", opts.Prefix)
	}
	if min := opts.Method.MinSeries(); n < min {
		return fmt.Errorf("pfg: %v needs at least %d series, have %d", opts.Method, min, n)
	}
	return nil
}

func clusterMatrixOn(ctx context.Context, pool *exec.Pool, w *ws.Workspace, sim, dis *Matrix, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validateOptions(sim.N, opts); err != nil {
		return nil, err
	}
	if opts.Prefix == 0 {
		opts.Prefix = 10
	}
	switch opts.Method {
	case TMFGDBHT:
		r, err := core.TMFGDBHTWS(ctx, pool, w, sim, dis, opts.Prefix)
		if err != nil {
			return nil, err
		}
		return &Result{Dendrogram: r.Dendrogram, EdgeWeightSum: r.EdgeWeightSum, Groups: r.Groups, Edges: r.Edges}, nil
	case PMFGDBHT:
		r, err := core.PMFGDBHTWS(ctx, pool, w, sim, dis)
		if err != nil {
			return nil, err
		}
		return &Result{Dendrogram: r.Dendrogram, EdgeWeightSum: r.EdgeWeightSum, Groups: r.Groups, Edges: r.Edges}, nil
	case CompleteLinkage, AverageLinkage:
		linkage := hac.Complete
		if opts.Method == AverageLinkage {
			linkage = hac.Average
		}
		r, err := core.HACWS(ctx, pool, w, sim, dis, linkage)
		if err != nil {
			return nil, err
		}
		return &Result{Dendrogram: r.Dendrogram}, nil
	default:
		return nil, fmt.Errorf("pfg: unknown method %v", opts.Method)
	}
}

// TMFG builds just the filtered graph from a similarity matrix with the
// given prefix, returning the undirected edge list (3n−6 edges) and the
// captured edge weight. sim is validated as ClusterMatrix validates it: a
// nil matrix, a backing slice that is not n×n long or a non-finite entry
// returns an error.
func TMFG(sim *Matrix, prefix int) (edges [][2]int32, weight float64, err error) {
	if err := validateMatrix("similarity", sim); err != nil {
		return nil, 0, err
	}
	w := ws.Get()
	defer ws.Put(w)
	r, err := tmfg.BuildWS(context.Background(), exec.Default(), w, sim, prefix)
	if err != nil {
		return nil, 0, err
	}
	// Only the edge list leaves this call; the CSR graph goes back to w.
	r.Graph.Release(w)
	return r.Edges, r.EdgeWeightSum(sim), nil
}

// DefaultRebuildEvery is the default drift-rebuild period of a Streamer: the
// number of window slides between exact moment recomputations.
const DefaultRebuildEvery = stream.DefaultRebuildEvery

// KernelISA reports which compute-kernel backend this process selected at
// init: "avx512" on amd64 hosts with AVX-512F (the SYRK runs its 4×16
// AVX-512 tile; every other kernel its AVX2 form), "avx2" on other amd64
// hosts with AVX2, "scalar" otherwise or when built with -tags purego. All
// backends produce bit-identical float64 results; the name is operational
// metadata for logs and /statsz, not a correctness signal.
func KernelISA() string { return kernel.ISA() }

// ErrClosed is the sentinel returned by Push, Snapshot, SnapshotGen, and
// Rebuild once the Streamer has been closed. Test for it with errors.Is; a
// closed streamer never panics or blocks.
var ErrClosed = errors.New("pfg: streamer is closed")

// StreamOptions configures NewStreamer.
type StreamOptions struct {
	// Cluster configures the snapshots (method, prefix, worker budget), with
	// the same semantics as the batch Options. With Workers > 0 the streamer
	// owns one bounded pool for its whole lifetime (released by Close);
	// Workers:1 makes every Snapshot deterministic and bit-comparable to a
	// Workers:1 batch Cluster.
	Cluster Options
	// RebuildEvery is the drift-rebuild knob K: every K window slides the
	// moments are recomputed exactly from the buffered window (O(n²·T),
	// amortized n²·T/K per tick), bounding float drift and restoring
	// bit-identity with batch recomputation. 0 selects DefaultRebuildEvery;
	// a negative value disables periodic rebuilds (Rebuild can still be
	// called explicitly).
	RebuildEvery int
	// Incremental enables the cross-tick incremental clustering layer (see
	// IncrementalOptions). The zero value leaves it off: every snapshot
	// clusters the window from scratch.
	Incremental IncrementalOptions
}

// IncrementalOptions configures the incremental clustering layer of a
// Streamer: instead of re-clustering the rolling window on every snapshot,
// the streamer keeps the most recent exact clustering and serves it while
// the window's correlation matrix provably stays close to the state that
// clustering was computed from.
//
// Serving contract. A snapshot is re-clustered exactly (and becomes the new
// reference) whenever (1) the engine's moments are exact — during window
// fill and on the first snapshot after a periodic or forced Rebuild, which
// preserves the streamer's bit-identity guarantees at every exact boundary
// — or the snapshot's generation precedes the reference's; (2) the
// entrywise correlation drift since the reference, measured straight from
// the rolling moments without finishing them into a matrix, exceeds
// DriftThreshold; or (3) the reference is MaxStale generations old.
// Otherwise the snapshot serves an owned copy of the reference, with
// Result.TicksSinceExact and Result.Drift reporting its age and the measured
// drift; that copy is bit-identical to the exact clustering of the
// reference's window.
type IncrementalOptions struct {
	// Enabled turns the incremental layer on. Supported for the TMFGDBHT,
	// CompleteLinkage, and AverageLinkage methods.
	Enabled bool
	// DriftThreshold is the serving bound ε: the largest entrywise
	// correlation deviation from the reference clustering's window that may
	// be served incrementally. 0 selects the default (0.02); a negative
	// value forces an exact re-cluster on every snapshot.
	DriftThreshold float64
	// MaxStale bounds the reference's age in window generations. 0 selects
	// the default (64); negative disables the staleness gate.
	MaxStale int
}

// IncrementalStats counts incremental-layer gate outcomes for a Streamer
// (see Streamer.IncrementalStats). Fulls is the total number of exact
// re-clusterings; the FullX fields break it down by the gate that forced
// it. Hits counts snapshots served from the reference.
type IncrementalStats struct {
	Hits         uint64
	Fulls        uint64
	FullInit     uint64
	FullBoundary uint64
	FullDrift    uint64
	FullStale    uint64
}

// StreamerMetrics is a streamer's per-stage timing instrumentation,
// installed with Streamer.SetMetrics. Each field is one pipeline stage (an
// obs.Stage: a log2-bucketed duration histogram plus the most recent
// duration, both optional); nil fields are skipped at zero cost, and with no
// metrics installed the streamer never reads the clock on its hot paths. The
// serving layer points the stages at shared server-level histograms; CLIs
// that only want slow-tick breakdowns use NewStreamerMetrics (bare stages,
// no histograms) and read Last per stage.
type StreamerMetrics struct {
	// Push stages (internal/stream): sample validation, the O(n²) rank-1
	// roll + moment bookkeeping, and exact rebuilds (periodic, forced, or
	// corruption repairs).
	PushAdmit *obs.Stage
	PushRoll  *obs.Stage
	Rebuild   *obs.Stage

	// Snapshot stages of the non-incremental path: finishing moments into
	// the correlation matrix, then the clustering run.
	SnapshotFinish  *obs.Stage
	SnapshotCluster *obs.Stage

	// Incremental gate-chain stages: the drift measurement and exact
	// refreshes (which subsume finish + cluster for incremental sessions).
	IncDrift   *obs.Stage
	IncRefresh *obs.Stage
}

// NewStreamerMetrics returns a StreamerMetrics with every stage allocated
// but no histograms attached: each stage records only its most recent
// duration (Stage.Last) — what a CLI -log-slow-tick breakdown needs without
// carrying a registry.
func NewStreamerMetrics() *StreamerMetrics {
	return &StreamerMetrics{
		PushAdmit:       obs.NewStage(nil),
		PushRoll:        obs.NewStage(nil),
		Rebuild:         obs.NewStage(nil),
		SnapshotFinish:  obs.NewStage(nil),
		SnapshotCluster: obs.NewStage(nil),
		IncDrift:        obs.NewStage(nil),
		IncRefresh:      obs.NewStage(nil),
	}
}

// Streamer is the stateful serving layer over the batch pipeline: it
// maintains rolling-window Pearson moments incrementally (O(n²) per Push
// instead of the O(n²·T) batch correlation recompute) and clusters the
// current window on demand. The number of series is fixed by the first Push;
// Snapshot becomes available once two samples are in.
//
// Exactness. While the window is filling, and immediately after any rebuild
// (periodic every RebuildEvery slides, or forced via Rebuild), snapshots are
// bit-identical to Cluster over the same window with the same Options —
// every moment is maintained by the same ascending-time fold the batch SYRK
// computes. Between rebuilds, roll downdates accumulate bounded float drift
// (≤ RebuildEvery rank-1 roundings; ~1e-12 relative for unit-scale data).
//
// Concurrency. Push and Rebuild are writers and may be called from one
// goroutine at a time; Snapshot is a reader and may be called concurrently
// with other Snapshots and with Push — it holds the streamer's read lock
// only while copying the O(n²) moment band, then finishes and clusters on
// private buffers. All scratch comes from one pinned workspace owned by the
// streamer (not the process-wide pool), so steady-state ticks allocate
// almost nothing beyond the Result that escapes.
type Streamer struct {
	mu      sync.RWMutex
	window  int
	opts    StreamOptions
	pool    *exec.Pool
	ownPool bool
	w       *ws.Workspace
	eng     *stream.Engine   // created by the first Push
	inc     *incGate         // non-nil iff Incremental.Enabled
	met     *StreamerMetrics // per-stage timing, nil = uninstrumented
	closed  bool

	// watchMu guards watchCh, the close-and-replace notification channel
	// behind Watch. It is separate from mu because the engine's generation
	// hook fires while mu is write-held, and Watch readers must be able to
	// fetch the channel without contending on the streamer lock.
	watchMu sync.Mutex
	watchCh chan struct{}
}

// NewStreamer creates a streamer over a rolling window of the given length
// (in samples). The number of series is inferred from the first Push.
func NewStreamer(window int, opts StreamOptions) (*Streamer, error) {
	return newStreamer(window, opts, ws.New())
}

// newStreamer is NewStreamer over a caller-provided pinned workspace, so
// RestoreStreamer can hand over a workspace the restored engine's buffers
// were already drawn from.
func newStreamer(window int, opts StreamOptions, w *ws.Workspace) (*Streamer, error) {
	if window < 2 {
		return nil, fmt.Errorf("pfg: streaming window %d < 2", window)
	}
	if opts.Cluster.Prefix < 0 {
		return nil, fmt.Errorf("pfg: Prefix must be ≥ 0 (0 selects the default), got %d", opts.Cluster.Prefix)
	}
	if opts.RebuildEvery == 0 {
		opts.RebuildEvery = DefaultRebuildEvery
	}
	st := &Streamer{window: window, opts: opts, w: w, watchCh: make(chan struct{})}
	if opts.Incremental.Enabled {
		switch opts.Cluster.Method {
		case TMFGDBHT, CompleteLinkage, AverageLinkage:
		default:
			return nil, fmt.Errorf("pfg: incremental streaming does not support method %v", opts.Cluster.Method)
		}
		// A checkpoint could not carry a non-finite threshold back in.
		if eps := opts.Incremental.DriftThreshold; math.IsNaN(eps) || math.IsInf(eps, 0) {
			return nil, fmt.Errorf("pfg: incremental DriftThreshold must be finite, got %v", eps)
		}
		st.inc = newIncGate(opts.Incremental)
	}
	if opts.Cluster.Workers > 0 {
		st.pool = exec.New(opts.Cluster.Workers)
		st.ownPool = true
	} else {
		st.pool = exec.Default()
	}
	return st, nil
}

// Push admits one sample — one observation per series, in series order —
// into the rolling window in O(n²). The first Push fixes the number of
// series. Samples must be finite and within the window's overflow-safe
// magnitude bound — √(MaxFloat64/window), ~2.1e152 at window 4096; a
// rejected Push leaves the window untouched.
func (st *Streamer) Push(sample []float64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.eng == nil {
		// The series count is fixed by the first ADMITTED sample: if this
		// push is rejected (non-finite values), discard the tentative
		// engine so a later well-formed sample of any arity can still be
		// first.
		eng, err := stream.New(len(sample), st.window, st.opts.RebuildEvery, st.w)
		if err != nil {
			return err
		}
		eng.SetGenHook(st.notifyWatch)
		if st.met != nil {
			eng.SetMetrics(streamMetrics(st.met))
		}
		if err := eng.Push(st.pool, sample); err != nil {
			eng.Release()
			return err
		}
		st.eng = eng
		return nil
	}
	return st.eng.Push(st.pool, sample)
}

// streamMetrics projects the push-side stages into the engine's metrics
// struct.
func streamMetrics(m *StreamerMetrics) *stream.Metrics {
	return &stream.Metrics{Admit: m.PushAdmit, Roll: m.PushRoll, Rebuild: m.Rebuild}
}

// SetMetrics installs (or, with nil, removes) per-stage timing
// instrumentation. It takes the write lock, so it serializes with pushes and
// snapshots and can be called at any point in the streamer's life — the
// serving layer installs metrics right after creating or restoring a
// session. The streamer keeps the pointer; the caller may read stage values
// concurrently (stages are atomic).
func (st *Streamer) SetMetrics(m *StreamerMetrics) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.met = m
	if st.eng != nil {
		if m == nil {
			st.eng.SetMetrics(nil)
		} else {
			st.eng.SetMetrics(streamMetrics(m))
		}
	}
}

// Metrics returns the installed stage-timing set (nil when uninstrumented).
func (st *Streamer) Metrics() *StreamerMetrics {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.met
}

// Snapshot clusters the current window with the streamer's Options,
// returning the same Result a batch Cluster call would. It requires at least
// 2 samples (and the method's minimum series count). Snapshot may run
// concurrently with Push: it copies the moment state under a read lock and
// does all remaining work — the O(n²) correlation finish and the clustering
// — on private workspace buffers.
func (st *Streamer) Snapshot(ctx context.Context) (*Result, error) {
	r, _, err := st.SnapshotGen(ctx)
	return r, err
}

// SnapshotGen is Snapshot plus the generation stamp of the window state the
// snapshot was computed from, captured atomically with the moment copy: two
// results carrying the same generation are clusterings of bit-identical
// moments. Serving layers use the stamp as a cache key — a result of
// generation g stays valid until Generation() moves past g.
func (st *Streamer) SnapshotGen(ctx context.Context) (*Result, uint64, error) {
	st.mu.RLock()
	if st.closed {
		st.mu.RUnlock()
		return nil, 0, ErrClosed
	}
	if st.eng == nil || st.eng.Len() < 2 {
		n := 0
		if st.eng != nil {
			n = st.eng.Len()
		}
		st.mu.RUnlock()
		return nil, 0, fmt.Errorf("pfg: streaming window holds %d samples, need at least 2", n)
	}
	n := st.eng.N()
	if err := validateOptions(n, st.opts.Cluster); err != nil {
		st.mu.RUnlock()
		return nil, 0, err
	}
	gen := st.eng.Generation()
	exact := st.eng.Exact()
	met := st.met
	sim := matrix.NewSymWS(st.w, n)
	sums := st.w.Float64(n)
	count := st.eng.CopyState(sim.Data, sums)
	st.mu.RUnlock()

	var r *Result
	var err error
	if st.inc != nil {
		r, err = st.incSnapshot(ctx, met, sim, sums, count, gen, exact)
	} else {
		r, err = st.finishAndCluster(ctx, met, sim, sums, count)
	}
	sim.Release(st.w)
	st.w.PutFloat64(sums)
	if err != nil {
		return nil, 0, err
	}
	return r, gen, nil
}

// finishAndCluster is the one exact path of every snapshot that clusters: it
// finishes the copied moments into correlations (in place in sim), then
// clusters them. met laps the non-incremental snapshot stages; the
// incremental layer passes nil and times its refresh whole.
func (st *Streamer) finishAndCluster(ctx context.Context, met *StreamerMetrics, sim *Matrix, sums []float64, count int) (*Result, error) {
	var sw obs.Stopwatch
	if met != nil {
		sw.Start()
	}
	if err := matrix.FinishMomentsWS(ctx, st.pool, st.w, sim, sums, count); err != nil {
		return nil, err
	}
	if met != nil {
		sw.Lap(met.SnapshotFinish)
	}
	r, err := clusterMatrixOn(ctx, st.pool, st.w, sim, nil, st.opts.Cluster)
	if met != nil && err == nil {
		sw.Lap(met.SnapshotCluster)
	}
	return r, err
}

// Rebuild forces an exact recomputation of the window's moments (O(n²·T)),
// discarding accumulated roll drift; until the next slide, Snapshot results
// are bit-identical to batch Cluster over the same window. It fails only
// with ErrClosed, after Close.
func (st *Streamer) Rebuild() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return ErrClosed
	}
	if st.eng != nil {
		st.eng.Rebuild(st.pool)
	}
	return nil
}

// Checkpoint writes a versioned, CRC-framed binary checkpoint of the
// streamer's full window state to w (see internal/ckpt for the wire form)
// and returns the generation stamp the checkpoint is atomic with: it is
// taken under the same read lock as Snapshot, so the bytes written are the
// bits of exactly that generation — pushes running concurrently land either
// entirely before or entirely after it. A streamer restored from the bytes
// (RestoreStreamer) produces Snapshot results bit-identical to this one at
// the same worker count, and its next Push advances to the same bits this
// streamer's would.
//
// A streamer that has not admitted its first push yet checkpoints its
// configuration alone (generation 0). The incremental layer's reference
// clustering is a cache, not state: it is not written, and the restored
// streamer's first snapshot re-clusters exactly. A closed streamer returns
// ErrClosed.
func (st *Streamer) Checkpoint(w io.Writer) (uint64, error) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed {
		return 0, ErrClosed
	}
	var gen uint64
	if st.eng != nil {
		gen = st.eng.Generation()
	}
	p := ckpt.Params{
		Window:       st.window,
		RebuildEvery: st.opts.RebuildEvery,
		Inc: ckpt.IncParams{
			Enabled:        st.opts.Incremental.Enabled,
			DriftThreshold: st.opts.Incremental.DriftThreshold,
			MaxStale:       st.opts.Incremental.MaxStale,
		},
	}
	if _, err := ckpt.CheckpointTo(w, st.eng, p); err != nil {
		return 0, err
	}
	return gen, nil
}

// RestoreStreamer reconstructs a streamer from checkpoint bytes written by
// Checkpoint. The window geometry, rebuild cadence, and incremental-layer
// configuration come from the checkpoint; cluster
// supplies what a checkpoint deliberately does not carry — the snapshot
// Options (method, prefix, worker budget), which are serving configuration
// rather than window state. The restored streamer resumes at the
// checkpointed generation with bit-identical moments: its snapshots and the
// checkpointed streamer's are byte-for-byte equal at the same worker count,
// and subsequent pushes evolve both through identical states.
//
// The input is fully untrusted: framing CRCs, format version, every
// declared shape, and the engine's own state invariants are validated
// (typed errors ckpt.ErrBadMagic / ErrVersion / ErrCorrupt / ErrFormat)
// before any state is accepted.
func RestoreStreamer(r io.Reader, cluster Options) (*Streamer, error) {
	w := ws.New()
	eng, p, err := ckpt.RestoreEngine(r, w)
	if err != nil {
		return nil, err
	}
	opts := StreamOptions{
		Cluster:      cluster,
		RebuildEvery: p.RebuildEvery,
		Incremental: IncrementalOptions{
			Enabled:        p.Inc.Enabled,
			DriftThreshold: p.Inc.DriftThreshold,
			MaxStale:       p.Inc.MaxStale,
		},
	}
	st, err := newStreamer(p.Window, opts, w)
	if err != nil {
		if eng != nil {
			eng.Release()
		}
		return nil, err
	}
	if eng != nil {
		eng.SetGenHook(st.notifyWatch)
		st.eng = eng
	}
	return st, nil
}

// Len returns the number of samples currently in the window.
func (st *Streamer) Len() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.eng == nil {
		return 0
	}
	return st.eng.Len()
}

// Window returns the window capacity in samples.
func (st *Streamer) Window() int { return st.window }

// MemoryBytes reports the resident bytes of the streamer's window ring and
// moment band — the figures a serving layer charges against its memory
// ceilings (both 0 before the first admitted push).
func (st *Streamer) MemoryBytes() (ringBytes, bandBytes int) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.eng == nil {
		return 0, 0
	}
	return st.eng.RingBytes(), st.eng.BandBytes()
}

// Series returns the number of series, fixed by the first admitted Push
// (0 before that).
func (st *Streamer) Series() int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.eng == nil {
		return 0
	}
	return st.eng.N()
}

// Generation returns the monotonic version stamp of the window state: it
// advances on every admitted Push and on every drift-discarding Rebuild, and
// two snapshots observing the same generation are clusterings of
// bit-identical moments (see SnapshotGen). A streamer that has not admitted
// a sample yet — or has been closed — reports 0.
func (st *Streamer) Generation() uint64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.closed || st.eng == nil {
		return 0
	}
	return st.eng.Generation()
}

// notifyWatch wakes every goroutine parked on the current watch channel by
// closing it and installing a fresh one. It is the streamer's generation
// hook (fired by the engine on every Generation advance, including the
// double bump of a push that triggers a periodic rebuild) and is also fired
// once by Close so watchers re-check state and observe ErrClosed.
func (st *Streamer) notifyWatch() {
	st.watchMu.Lock()
	close(st.watchCh)
	st.watchCh = make(chan struct{})
	st.watchMu.Unlock()
}

// Watch returns the current generation together with a channel that is
// closed the next time the generation advances (or the streamer is closed).
// The channel is fetched before the generation is read, so a bump can never
// fall between the two: if the state moves after the read, the returned
// channel is already closed (or about to be). The intended shape is a loop —
// read Watch, act if the generation moved past what you have, otherwise park
// on the channel — which is exactly how the serving layer's long-polls and
// SSE broadcasters wait for pushes without polling.
func (st *Streamer) Watch() (uint64, <-chan struct{}) {
	st.watchMu.Lock()
	ch := st.watchCh
	st.watchMu.Unlock()
	return st.Generation(), ch
}

// Exact reports whether the next Snapshot is guaranteed bit-identical to a
// batch Cluster over the same window (true while the window is filling and
// right after a rebuild).
func (st *Streamer) Exact() bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.eng == nil || st.eng.Exact()
}

// IncrementalStats returns the incremental layer's gate counters and
// whether the layer is enabled; a disabled streamer reports zeroes and
// false. Counters accumulate over the streamer's lifetime; a read never
// waits behind a snapshot, even one that is re-clustering.
func (st *Streamer) IncrementalStats() (IncrementalStats, bool) {
	if st.inc == nil {
		return IncrementalStats{}, false
	}
	g := st.inc
	s := IncrementalStats{
		Hits:         g.hits.Load(),
		FullInit:     g.fullInit.Load(),
		FullBoundary: g.fullBoundary.Load(),
		FullDrift:    g.fullDrift.Load(),
		FullStale:    g.fullStale.Load(),
	}
	s.Fulls = s.FullInit + s.FullBoundary + s.FullDrift + s.FullStale
	return s, true
}

// Close releases the streamer's owned worker pool (if any) and marks it
// unusable: every later Push, Snapshot, SnapshotGen, or Rebuild returns
// ErrClosed (never panics, never blocks). Close is idempotent; concurrent
// Snapshots that already hold the state complete normally.
func (st *Streamer) Close() {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed {
		return
	}
	st.closed = true
	if st.ownPool {
		st.pool.Close()
	}
	// Wake watchers so they re-read state and see the closed streamer
	// (Generation now reports 0, snapshots return ErrClosed) instead of
	// parking forever on a channel no push will ever close.
	st.notifyWatch()
}

// ARI computes the Adjusted Rand Index between two flat clusterings.
func ARI(a, b []int) (float64, error) { return metrics.ARI(a, b) }

// AMI computes the Adjusted Mutual Information between two flat clusterings.
func AMI(a, b []int) (float64, error) { return metrics.AMI(a, b) }
