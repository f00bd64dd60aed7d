// Package core wires the substrates into the end-to-end pipelines evaluated
// in the paper: TMFG+DBHT (the contribution), PMFG+DBHT, complete- and
// average-linkage HAC, k-means, and spectral k-means. It also records the
// per-stage timing breakdown reported in Figure 5.
package core

import (
	"context"
	"fmt"
	"time"

	"pfg/internal/bubbletree"
	"pfg/internal/dbht"
	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/hac"
	"pfg/internal/kmeans"
	"pfg/internal/matrix"
	"pfg/internal/pmfg"
	"pfg/internal/spectral"
	"pfg/internal/tmfg"
	"pfg/internal/ws"
)

// Breakdown is the per-stage wall-clock decomposition of a filtered-graph
// clustering run, matching the stages of Figure 5: "tmfg" (graph
// construction, including the on-the-fly bubble tree), "apsp", "bubble-tree"
// (direction + vertex assignment), and "hierarchy".
type Breakdown struct {
	Correlation time.Duration
	Graph       time.Duration // TMFG or PMFG construction
	APSP        time.Duration
	BubbleTree  time.Duration // direction + assignments (+ generic construction for PMFG)
	Hierarchy   time.Duration
	Total       time.Duration
}

// Result is a hierarchical clustering outcome.
type Result struct {
	Dendrogram *dendro.Dendrogram
	// Edges lists the filtered graph's undirected edges in insertion order
	// (nil for non-graph methods). The slice is owned by the Result.
	Edges [][2]int32
	// EdgeWeightSum is the similarity captured by the filtered graph.
	EdgeWeightSum float64
	// Groups is the number of DBHT groups (converging bubbles used).
	Groups int
	// Timings is the stage breakdown.
	Timings Breakdown
}

// TMFGDBHTWS runs the paper's pipeline on a similarity matrix: TMFG with
// the given prefix, then DBHT. dis may be nil, in which case √(2(1−s)) is
// used. Every parallel stage (TMFG rounds, APSP, DBHT assignment,
// hierarchy) runs within the pool's worker budget and aborts with
// ctx.Err() once ctx is cancelled. The derived dissimilarity matrix (when
// dis is nil), the TMFG's CSR arrays, the APSP matrix, and every per-stage
// scratch buffer are drawn from and returned to w (nil allocates), so
// repeated same-shape runs on a warm workspace perform only the
// allocations that escape into the Result.
func TMFGDBHTWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, sim *matrix.Sym, dis *matrix.Sym, prefix int) (*Result, error) {
	start := time.Now()
	var bd Breakdown
	ownDis := false
	if dis == nil {
		var err error
		dis, err = matrix.DissimilarityWS(ctx, pool, w, sim)
		if err != nil {
			return nil, err
		}
		ownDis = true
	}
	t0 := time.Now()
	tm, err := tmfg.BuildWS(ctx, pool, w, sim, prefix)
	if err != nil {
		if ownDis {
			dis.Release(w)
		}
		return nil, err
	}
	bd.Graph = time.Since(t0)
	res, err := dbht.BuildWS(ctx, pool, w, tm.Graph, tm.Tree, dis, dbht.Options{})
	if ownDis {
		dis.Release(w)
	}
	if err != nil {
		return nil, err
	}
	out := &Result{
		Dendrogram:    res.Dendrogram,
		Edges:         tm.Edges,
		EdgeWeightSum: tm.EdgeWeightSum(sim),
		Groups:        len(res.Groups),
	}
	// The filtered graph is internal to the pipeline: nothing in Result
	// references it, so its CSR arrays go back to the workspace.
	tm.Graph.Release(w)
	bd.APSP = res.Timings.APSP
	bd.BubbleTree = res.Timings.Direction + res.Timings.Assign
	bd.Hierarchy = res.Timings.Hierarchy
	bd.Total = time.Since(start)
	out.Timings = bd
	return out, nil
}

// PMFGDBHTWS runs the baseline pipeline: sequential PMFG, the original
// (generic) bubble tree construction, then DBHT, on pool with cooperative
// cancellation through every stage (PMFG planarity tests, bubble tree,
// DBHT). dis may be nil, in which case √(2(1−s)) is used. DBHT's scratch
// and the derived dissimilarity matrix come from w (nil allocates).
func PMFGDBHTWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, sim *matrix.Sym, dis *matrix.Sym) (*Result, error) {
	start := time.Now()
	var bd Breakdown
	if dis == nil {
		d, err := matrix.DissimilarityWS(ctx, pool, w, sim)
		if err != nil {
			return nil, err
		}
		defer d.Release(w)
		dis = d
	}
	t0 := time.Now()
	pm, err := pmfg.BuildCtx(ctx, pool, sim)
	if err != nil {
		return nil, err
	}
	bd.Graph = time.Since(t0)
	t0 = time.Now()
	tree, err := bubbletree.BuildGenericCtx(ctx, pool, pm.Graph)
	if err != nil {
		return nil, err
	}
	genericTree := time.Since(t0)
	res, err := dbht.BuildWS(ctx, pool, w, pm.Graph, tree, dis, dbht.Options{})
	if err != nil {
		return nil, err
	}
	bd.APSP = res.Timings.APSP
	bd.BubbleTree = genericTree + res.Timings.Direction + res.Timings.Assign
	bd.Hierarchy = res.Timings.Hierarchy
	bd.Total = time.Since(start)
	return &Result{
		Dendrogram:    res.Dendrogram,
		Edges:         pm.Edges,
		EdgeWeightSum: pm.EdgeWeightSum(sim),
		Groups:        len(res.Groups),
		Timings:       bd,
	}, nil
}

// HACWS runs complete- or average-linkage clustering on a dissimilarity
// matrix (the COMP and AVG baselines) on pool, with cooperative
// cancellation checked once per NN-chain merge. The NN-chain's working copy
// of the matrix comes from w (nil allocates).
func HACWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, dis *matrix.Sym, linkage hac.Linkage) (*Result, error) {
	start := time.Now()
	buf := w.Float64(len(dis.Data))
	copy(buf, dis.Data)
	d, err := hac.RunMatrixWS(ctx, pool, w, dis.N, buf, linkage)
	w.PutFloat64(buf)
	if err != nil {
		return nil, err
	}
	return &Result{
		Dendrogram: d,
		Timings:    Breakdown{Hierarchy: time.Since(start), Total: time.Since(start)},
	}, nil
}

// CutLabels cuts a result's dendrogram into k clusters.
func (r *Result) CutLabels(k int) ([]int, error) {
	if r.Dendrogram == nil {
		return nil, fmt.Errorf("core: result has no dendrogram")
	}
	return r.Dendrogram.Cut(k)
}

// KMeansCtx clusters raw series with k-means (the K-MEANS baseline; the
// scalable k-means|| seeding is used, as in the paper's comparison) on pool
// with cooperative cancellation.
func KMeansCtx(ctx context.Context, pool *exec.Pool, series [][]float64, k int, seed int64) ([]int, error) {
	res, err := kmeans.RunCtx(ctx, pool, series, kmeans.Options{K: k, Seed: seed, Scalable: true})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// KMeansSpectralCtx clusters series with a spectral embedding onto k
// components using β nearest neighbors, then k-means (the K-MEANS-S
// baseline), on pool with cooperative cancellation through both the
// embedding and the k-means stages.
func KMeansSpectralCtx(ctx context.Context, pool *exec.Pool, series [][]float64, k, beta int, seed int64) ([]int, error) {
	emb, err := spectral.EmbedCtx(ctx, pool, series, spectral.Options{
		Neighbors:  beta,
		Components: k,
		Seed:       seed,
	})
	if err != nil {
		return nil, err
	}
	res, err := kmeans.RunCtx(ctx, pool, emb, kmeans.Options{K: k, Seed: seed})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}
