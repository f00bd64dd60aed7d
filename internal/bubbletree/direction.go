package bubbletree

import (
	"context"
	"slices"

	"pfg/internal/bitset"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/ws"
)

// Directed augments a bubble tree with edge directions computed by
// Algorithm 3 of Yu & Shun: for every tree edge (separating triangle), the
// total TMFG edge weight from the triangle to its interior (InVal) and
// exterior (OutVal) decides the direction. The edge points from the weaker
// to the stronger side: InVal > OutVal directs the edge from the parent to
// the child (toward the interior).
type Directed struct {
	Tree *Tree
	// DirDown[b] is true when the edge between non-root b and its parent is
	// directed parent→b (interior side stronger). Undefined at the root.
	DirDown []bool
	InVal   []float64
	OutVal  []float64
	// OutDeg[b] is the out-degree of b in the directed tree.
	OutDeg []int32
	// Converging lists the node ids with out-degree zero, ascending.
	Converging []int32
}

// DirectEdgesCtx runs the recursive interior-strength computation on the
// tree, using g (the filtered graph) for edge weights. It is O(Σ|bubble|)
// work: linear for TMFG trees. Children are processed with nested
// parallelism on the pool; cancellation is checked at every tree node.
func DirectEdgesCtx(ctx context.Context, pool *exec.Pool, t *Tree, g *graph.Graph) (*Directed, error) {
	d := &Directed{
		Tree:    t,
		DirDown: make([]bool, len(t.Nodes)),
		InVal:   make([]float64, len(t.Nodes)),
		OutVal:  make([]float64, len(t.Nodes)),
		OutDeg:  make([]int32, len(t.Nodes)),
	}
	wdeg := make([]float64, g.N)
	if err := pool.ForGrain(ctx, g.N, 0, func(v int) { wdeg[v] = g.WeightedDegree(int32(v)) }); err != nil {
		return nil, err
	}
	d.visit(ctx, pool, t.Root, g, wdeg)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Out-degrees: each non-root edge contributes one out-edge.
	for b := range t.Nodes {
		if int32(b) == t.Root {
			continue
		}
		if d.DirDown[b] {
			d.OutDeg[t.Nodes[b].Parent]++
		} else {
			d.OutDeg[b]++
		}
	}
	for b := range t.Nodes {
		if d.OutDeg[b] == 0 {
			d.Converging = append(d.Converging, int32(b))
		}
	}
	return d, nil
}

// visit computes r, the per-corner interior weight sums for node b's
// separating triangle, recursing over children in parallel. Subtrees are
// skipped once the context is cancelled (the partial result is discarded by
// the caller).
func (d *Directed) visit(ctx context.Context, pool *exec.Pool, b int32, g *graph.Graph, wdeg []float64) [3]float64 {
	if ctx.Err() != nil {
		return [3]float64{}
	}
	node := &d.Tree.Nodes[b]
	// Most TMFG bubbles have very few children; keep their results in a
	// stack buffer and recurse sequentially, fanning out on the pool (and
	// allocating the result slice) only for genuinely wide nodes.
	const seqChildren = 8
	var buf [seqChildren][3]float64
	var childRes [][3]float64
	switch nc := len(node.Children); {
	case nc == 0:
	case nc <= seqChildren:
		childRes = buf[:nc]
		for i, c := range node.Children {
			childRes[i] = d.visit(ctx, pool, c, g, wdeg)
		}
	default:
		// wide is a distinct variable so the closure's capture cannot force
		// the stack buffer above onto the heap.
		wide := make([][3]float64, nc)
		err := pool.ForGrain(ctx, nc, 1, func(i int) {
			wide[i] = d.visit(ctx, pool, node.Children[i], g, wdeg)
		})
		if err != nil {
			return [3]float64{}
		}
		childRes = wide
	}
	if node.Parent < 0 {
		return [3]float64{}
	}
	sep := node.Sep
	var r [3]float64
	// Edges from the separating triangle's corners to the bubble's own
	// interior vertices (for TMFG bubbles, the single fourth vertex).
	for _, v := range node.Vertices {
		if v == sep[0] || v == sep[1] || v == sep[2] {
			continue
		}
		for i := 0; i < 3; i++ {
			if w, ok := g.EdgeWeight(sep[i], v); ok {
				r[i] += w
			}
		}
	}
	// Children's interiors are also b's interior; planarity guarantees any
	// edge from a corner into a child's interior has its corner on the
	// child's separating triangle, so the child's r covers it exactly.
	for ci, c := range node.Children {
		cr := childRes[ci]
		csep := d.Tree.Nodes[c].Sep
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if csep[i] == sep[j] {
					r[j] += cr[i]
				}
			}
		}
	}
	inVal := r[0] + r[1] + r[2]
	wxy, _ := g.EdgeWeight(sep[0], sep[1])
	wxz, _ := g.EdgeWeight(sep[0], sep[2])
	wyz, _ := g.EdgeWeight(sep[1], sep[2])
	deg := wdeg[sep[0]] + wdeg[sep[1]] + wdeg[sep[2]]
	outVal := deg - inVal - 2*(wxy+wxz+wyz)
	d.InVal[b] = inVal
	d.OutVal[b] = outVal
	d.DirDown[b] = inVal > outVal
	return r
}

// walkConverging runs the directed BFS from start using the caller's
// visited bitset and queue scratch, calling emit for every reachable
// converging node (start included when converging). The bitset is restored
// to all-clear before returning, so one bitset serves many starts.
func (d *Directed) walkConverging(start int32, isConv, visited *bitset.Set, queue []int32, emit func(int32)) {
	visited.Set(start)
	queue[0] = start
	qh, qt := 0, 1
	for qh < qt {
		x := queue[qh]
		qh++
		if isConv.Test(x) {
			emit(x)
		}
		node := &d.Tree.Nodes[x]
		if node.Parent >= 0 && !d.DirDown[x] && !visited.TestAndSet(node.Parent) {
			queue[qt] = node.Parent
			qt++
		}
		for _, c := range node.Children {
			if d.DirDown[c] && !visited.TestAndSet(c) {
				queue[qt] = c
				qt++
			}
		}
	}
	visited.ClearList(queue[:qt])
}

// ReachableConvergingWS computes the reachable-converging sets as a flat
// grouping (group b = ascending converging node ids reachable from b),
// drawn from the workspace; release with w.PutGrouping. The per-node BFS
// (walkConverging) runs twice — a parallel counting pass sizes the CSR
// offsets, then a parallel fill pass writes each node's disjoint segment —
// with each worker block reusing one visited bitset and one flat queue
// across its nodes.
func (d *Directed) ReachableConvergingWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace) (*ws.Grouping, error) {
	n := len(d.Tree.Nodes)
	isConv := w.Bitset(n)
	for _, c := range d.Converging {
		isConv.Set(c)
	}
	counts := w.Int32(n)
	err := pool.ForBlocked(ctx, n, 1, func(lo, hi int) {
		visited := w.Bitset(n)
		queue := w.Int32(n)
		cnt := int32(0)
		count := func(int32) { cnt++ }
		for start := lo; start < hi; start++ {
			cnt = 0
			d.walkConverging(int32(start), isConv, visited, queue, count)
			counts[start] = cnt
		}
		w.PutInt32(queue)
		w.PutBitset(visited)
	})
	if err != nil {
		w.PutInt32(counts)
		w.PutBitset(isConv)
		return nil, err
	}
	out := w.Grouping()
	cur := out.StartFromCounts(counts, counts)
	err = pool.ForBlocked(ctx, n, 1, func(lo, hi int) {
		visited := w.Bitset(n)
		queue := w.Int32(n)
		at := int32(0)
		write := func(x int32) {
			out.Data[at] = x
			at++
		}
		for start := lo; start < hi; start++ {
			at = cur[start]
			d.walkConverging(int32(start), isConv, visited, queue, write)
			slices.Sort(out.Group(start))
		}
		w.PutInt32(queue)
		w.PutBitset(visited)
	})
	w.PutInt32(counts)
	w.PutBitset(isConv)
	if err != nil {
		w.PutGrouping(out)
		return nil, err
	}
	return out, nil
}
