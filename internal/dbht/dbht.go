// Package dbht implements the parallel Directed Bubble Hierarchy Tree
// algorithm (Algorithm 4 of Yu & Shun, ICDE 2023). Given a maximal planar
// filtered graph (TMFG or PMFG), its bubble tree, and a dissimilarity
// matrix, it produces a hierarchical clustering dendrogram:
//
//  1. Direct the bubble tree edges (Algorithm 3, package bubbletree).
//  2. Assign every vertex to a converging bubble (its "group"): vertices in
//     a converging bubble maximize the attachment χ; others minimize the
//     mean shortest-path distance to the vertices already assigned.
//  3. Assign every vertex to a bubble (its "bubble assignment") maximizing
//     the normalized attachment χ′.
//  4. Build a three-level complete-linkage hierarchy (intra-bubble →
//     inter-bubble → inter-group) with shortest-path distances, and assign
//     the height scheme of the reference implementation.
//
// The pipeline runs on flat memory end to end: vertex→bubble membership and
// reachability sets are CSR groupings, candidate/membership scratch is
// bitsets, and the APSP matrix plus every intermediate buffer comes from
// (and returns to) the call's ws.Workspace.
package dbht

import (
	"context"
	"fmt"
	"math"
	"time"

	"pfg/internal/bubbletree"
	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/matrix"
	"pfg/internal/ws"
)

// Timings records the per-stage wall-clock breakdown (Figure 5's stages:
// "apsp", "bubble-tree" = direction+assignment, "hierarchy").
type Timings struct {
	APSP      time.Duration
	Direction time.Duration
	Assign    time.Duration
	Hierarchy time.Duration
}

// Result is the DBHT output.
type Result struct {
	// Dendrogram over the n graph vertices.
	Dendrogram *dendro.Dendrogram
	// Directed is the directed bubble tree.
	Directed *bubbletree.Directed
	// Group[v] is the converging-bubble node id vertex v is assigned to.
	Group []int32
	// Bubble[v] is the bubble node id vertex v is assigned to.
	Bubble []int32
	// Groups lists the distinct group ids, ascending.
	Groups []int32
	// Timings is the stage breakdown.
	Timings Timings
}

// Options tunes DBHT variants.
type Options struct {
	// PaperAssignment follows the paper's textual description of Song et
	// al.: vertices belonging to a converging bubble keep that bubble as
	// their bubble assignment. The default (false) follows the reference
	// implementation, which re-assigns every vertex by the χ′ attachment —
	// the behavior footnote 2 of Yu & Shun adopts.
	PaperAssignment bool
}

// BuildWS runs DBHT on pool. g is the filtered graph weighted by
// similarity, tree its bubble tree, and dis the full dissimilarity matrix
// used for shortest paths; dis must have the same vertex count as g. Each
// stage (direction, APSP, assignment, hierarchy) runs its parallel loops on
// the pool and aborts with ctx.Err() once the context is cancelled; every
// transient buffer (the dissimilarity-weighted graph, the APSP matrix, the
// flat membership and reachability sets) is drawn from and returned to w
// (nil allocates).
func BuildWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, g *graph.Graph, tree *bubbletree.Tree, dis *matrix.Sym, opts Options) (*Result, error) {
	n := g.N
	if dis.N != n {
		return nil, fmt.Errorf("dbht: dissimilarity matrix is %d×%d, graph has %d vertices", dis.N, dis.N, n)
	}
	if n < 4 {
		return nil, fmt.Errorf("dbht: need at least 4 vertices, have %d", n)
	}
	res := &Result{}

	// Direction (Algorithm 3).
	t0 := time.Now()
	dir, err := bubbletree.DirectEdgesCtx(ctx, pool, tree, g)
	if err != nil {
		return nil, err
	}
	res.Directed = dir
	res.Timings.Direction = time.Since(t0)

	// All-pairs shortest paths on the filtered graph with dissimilarity
	// edge weights. The re-weighted graph shares g's CSR topology.
	t0 = time.Now()
	dg := g.WithWeights(w, func(u, v int32) float64 { return dis.At(int(u), int(v)) })
	apsp, err := dg.AllPairsShortestPathsWS(ctx, pool, w)
	dg.ReleaseWeights(w)
	if err != nil {
		return nil, err
	}
	res.Timings.APSP = time.Since(t0)

	// Vertex assignments.
	t0 = time.Now()
	group, bubble, groups, err := assign(ctx, pool, w, g, tree, dir, apsp, opts)
	if err != nil {
		w.PutFloat64(apsp.Dist)
		return nil, err
	}
	res.Group, res.Bubble, res.Groups = group, bubble, groups
	res.Timings.Assign = time.Since(t0)

	// Hierarchy.
	t0 = time.Now()
	dnd, err := buildHierarchy(ctx, pool, w, n, group, bubble, groups, apsp)
	w.PutFloat64(apsp.Dist)
	if err != nil {
		return nil, err
	}
	res.Dendrogram = dnd
	res.Timings.Hierarchy = time.Since(t0)
	return res, nil
}

// assign computes the group (converging bubble) and bubble assignment of
// every vertex (Lines 2–23 of Algorithm 4).
func assign(ctx context.Context, pool *exec.Pool, w *ws.Workspace, g *graph.Graph, tree *bubbletree.Tree, dir *bubbletree.Directed, apsp *graph.APSP, opts Options) (group, bubble []int32, groups []int32, err error) {
	n := g.N
	nb := tree.NumNodes()
	vb := w.Grouping()
	defer w.PutGrouping(vb)
	tree.VertexBubblesInto(w, vb, n)
	isConv := w.Bitset(nb)
	defer w.PutBitset(isConv)
	for _, c := range dir.Converging {
		isConv.Set(c)
	}

	// χ(v, b) = Σ_{u∈b} w(u,v) / (3(|b|−2)); for TMFG bubbles the
	// denominator is the constant 6 and never changes the argmax, but we
	// keep it for generic (PMFG) bubbles of varying size.
	chi := func(v int32, b int32) float64 {
		node := &tree.Nodes[b]
		s := 0.0
		for _, u := range node.Vertices {
			if u == v {
				continue
			}
			if w, ok := g.EdgeWeight(u, v); ok {
				s += w
			}
		}
		return s / float64(3*(len(node.Vertices)-2))
	}

	// First pass: vertices contained in at least one converging bubble.
	// group and bubble escape into the Result and stay plainly allocated.
	group = make([]int32, n)
	err = pool.ForGrain(ctx, n, 64, func(vi int) {
		v := int32(vi)
		best := int32(-1)
		bestChi := math.Inf(-1)
		for _, b := range vb.Group(vi) {
			if !isConv.Test(b) {
				continue
			}
			if c := chi(v, b); c > bestChi || (c == bestChi && b < best) {
				bestChi, best = c, b
			}
		}
		group[v] = best
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// V⁰_b: vertices assigned per converging bubble so far, as a flat
	// grouping over all nb bubble ids (non-converging groups stay empty).
	counts := w.Int32(nb)
	clear(counts)
	for v := 0; v < n; v++ {
		if b := group[v]; b >= 0 {
			counts[b]++
		}
	}
	v0 := w.Grouping()
	defer w.PutGrouping(v0)
	cur := v0.StartFromCounts(counts, counts)
	for v := 0; v < n; v++ {
		if b := group[v]; b >= 0 {
			v0.Data[cur[b]] = int32(v)
			cur[b]++
		}
	}
	w.PutInt32(counts)

	// Reachability from each bubble to converging bubbles (Lines 5–6).
	reach, err := dir.ReachableConvergingWS(ctx, pool, w)
	if err != nil {
		return nil, nil, nil, err
	}
	defer w.PutGrouping(reach)

	// Second pass: unassigned vertices minimize the mean shortest-path
	// distance L̄(v,b) over reachable converging bubbles with non-empty V⁰.
	// Each worker block dedups candidates with one bitset and a flat list.
	failed := w.Int32(n)
	defer w.PutInt32(failed)
	clear(failed)
	err = pool.ForBlocked(ctx, n, 16, func(lo, hi int) {
		seen := w.Bitset(nb)
		cands := w.Int32(nb)
		for vi := lo; vi < hi; vi++ {
			v := int32(vi)
			if group[v] >= 0 {
				continue
			}
			// Candidate converging bubbles reachable from any bubble of v.
			nc := 0
			for _, b := range vb.Group(vi) {
				for _, c := range reach.Group(int(b)) {
					if !seen.TestAndSet(c) {
						cands[nc] = c
						nc++
					}
				}
			}
			best := int32(-1)
			bestL := math.Inf(1)
			consider := func(c int32) {
				members := v0.Group(int(c))
				if len(members) == 0 {
					return
				}
				s := 0.0
				for _, u := range members {
					s += apsp.At(u, v)
				}
				l := s / float64(len(members))
				if l < bestL || (l == bestL && c < best) {
					bestL, best = l, c
				}
			}
			for _, c := range cands[:nc] {
				consider(c)
			}
			seen.ClearList(cands[:nc])
			if best < 0 {
				// All reachable converging bubbles were empty; fall back to
				// every converging bubble (at least one is non-empty).
				for _, c := range dir.Converging {
					consider(c)
				}
			}
			if best < 0 {
				failed[v] = 1
				continue
			}
			group[v] = best
		}
		w.PutInt32(cands)
		w.PutBitset(seen)
	})
	if err != nil {
		return nil, nil, nil, err
	}
	for v, f := range failed {
		if f != 0 {
			return nil, nil, nil, fmt.Errorf("dbht: vertex %d could not be assigned to a group", v)
		}
	}

	// Bubble assignment: χ′(v,b) = Σ_{u∈b} w(u,v) / Σ_{u',v'∈b} w(u',v').
	// Following the reference implementation (and the paper's footnote),
	// every vertex is (re)assigned, including converging-bubble members.
	bubbleWeight := w.Float64(nb)
	defer w.PutFloat64(bubbleWeight)
	err = pool.ForGrain(ctx, nb, 32, func(bi int) {
		node := &tree.Nodes[bi]
		s := 0.0
		for i, u := range node.Vertices {
			for _, w := range node.Vertices[i+1:] {
				if x, ok := g.EdgeWeight(u, w); ok {
					s += x
				}
			}
		}
		bubbleWeight[bi] = s
	})
	if err != nil {
		return nil, nil, nil, err
	}
	bubble = make([]int32, n)
	err = pool.ForGrain(ctx, n, 64, func(vi int) {
		v := int32(vi)
		if opts.PaperAssignment {
			// Footnote-2 textual variant: converging-bubble members stay in
			// their group's bubble.
			for _, b := range vb.Group(vi) {
				if b == group[v] {
					bubble[v] = b
					return
				}
			}
		}
		best := int32(-1)
		bestChi := math.Inf(-1)
		for _, b := range vb.Group(vi) {
			node := &tree.Nodes[b]
			s := 0.0
			for _, u := range node.Vertices {
				if u == v {
					continue
				}
				if w, ok := g.EdgeWeight(u, v); ok {
					s += w
				}
			}
			c := s
			if bubbleWeight[b] > 0 {
				c = s / bubbleWeight[b]
			}
			if c > bestChi || (c == bestChi && b < best) {
				bestChi, best = c, b
			}
		}
		bubble[v] = best
	})
	if err != nil {
		return nil, nil, nil, err
	}

	// Distinct groups, ascending (group ids index bubbles, so one bitset
	// pass replaces the map + sort).
	distinct := w.Bitset(nb)
	defer w.PutBitset(distinct)
	ng := 0
	for _, b := range group {
		if !distinct.TestAndSet(b) {
			ng++
		}
	}
	groups = make([]int32, 0, ng)
	for b := int32(0); int(b) < nb; b++ {
		if distinct.Test(b) {
			groups = append(groups, b)
		}
	}
	return group, bubble, groups, nil
}
