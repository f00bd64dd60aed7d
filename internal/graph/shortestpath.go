package graph

import (
	"context"
	"math"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// Dijkstra computes single-source shortest path distances from src using the
// graph's edge weights, which must be non-negative. Unreachable vertices get
// +Inf. The out slice, if non-nil and of length g.N, is reused. It is the
// oracle the all-pairs sweeps are tested against.
//
// The priority queue is the 4-ary kernel.Heap4. No settled set is needed:
// with non-negative weights a popped vertex can never be improved, so
// DecreaseKey's d ≥ dist[u] early-out filters stale relaxations. That
// argument requires non-negative weights, so the pop counter turns a
// violation (negative or NaN weights re-inserting popped vertices) into a
// panic instead of an unbounded loop.
func (g *Graph) Dijkstra(src int32, out []float64) []float64 {
	if out == nil || len(out) != g.N {
		out = make([]float64, g.N)
	}
	w := ws.Get()
	defer ws.Put(w)
	var h kernel.Heap4
	h.Init(w.Int32(g.N), w.Float64(g.N), w.Int32(g.N))
	h.DecreaseKey(src, 0)
	for pops := 0; h.Len() > 0; pops++ {
		if pops == g.N {
			panic("graph: Dijkstra requires non-negative finite edge weights")
		}
		v := h.PopMin()
		dv := h.DistOf(v)
		for k := g.Off[v]; k < g.Off[v+1]; k++ {
			h.DecreaseKey(g.Adj[k], dv+g.Weight[k])
		}
	}
	copy(out, h.Dists())
	verts, dist, pos := h.Storage()
	w.PutInt32(verts)
	w.PutFloat64(dist)
	w.PutInt32(pos)
	return out
}

// APSP holds all-pairs shortest path distances as an n×n row-major matrix:
// row u holds the distances from source u. DBHT reads all of them; the
// paper computes them with one Dijkstra per source, in parallel, since
// TMFGs have Θ(n) edges.
type APSP struct {
	N    int
	Dist []float64
}

// At returns the shortest-path distance from u to v.
func (a *APSP) At(u, v int32) float64 { return a.Dist[int(u)*a.N+int(v)] }

// AllPairsShortestPathsWS computes every source's distances on pool;
// cancellation is checked between relaxation sweeps. Weights must be
// non-negative (+Inf is allowed); a negative or NaN weight panics. Scratch
// and the result's Dist array are drawn from w (nil allocates): callers
// that discard the APSP before releasing the workspace may return it with
// w.PutFloat64(a.Dist).
//
// Vertices are renumbered into positions in BFS order, and each position
// pulls from its in-arcs: the arc v→u is stored at u's position with the
// weight of v's slot, since arc weights need not be symmetric. Sources are
// taken in the same order, kernel.RelaxLanes at a time, one per lane of a
// label block. A batch starts every label at +Inf except 0 at each lane's
// own source, then runs kernel.RelaxSweep forward and backward alternately
// until a sweep lowers no label, and scatters each lane into its source's
// row. Batches are spread over the pool.
//
// Each row is bit-identical to Graph.Dijkstra's, whatever the batch layout
// or worker count. With round-to-nearest and w ≥ 0, fl(a+w) is monotone in
// a and never below a, so the least fixed point of
// d(x) = min_p fl(d(p) + w(p,x)), d(src) = 0, is the minimum over walks of
// the left-to-right float path sum. Dijkstra computes that minimum, and so
// does a relaxation that starts from upper bounds (0 and +Inf), lowers a
// label only to fl(d(v)+w) of an in-neighbour v, and stops only at a fixed
// point. A minimum walk can be taken simple, and after k sweeps every walk
// of at most k arcs has been relaxed in order, so a batch lowers labels in
// at most n−1 sweeps and confirms in one more.
func (g *Graph) AllPairsShortestPathsWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace) (*APSP, error) {
	for _, x := range g.Weight {
		// A negative weight has no least fixed point to stop at; one check
		// here replaces a per-relaxation guard.
		if !(x >= 0) {
			panic("graph: shortest paths require non-negative edge weights")
		}
	}
	n := g.N
	a := &APSP{N: n, Dist: w.Float64(n * n)}
	// Components lists every vertex in BFS order, component by component.
	comps := g.Components(w)
	defer w.PutGrouping(comps)
	order := comps.Data
	rank := w.Int32(n)
	defer w.PutInt32(rank)
	for p, v := range order {
		rank[v] = int32(p)
	}
	off, adj, wt := w.Int32(n+1), w.Int32(len(g.Adj)), w.Float64(len(g.Adj))
	defer w.PutInt32(off)
	defer w.PutInt32(adj)
	defer w.PutFloat64(wt)
	off[0] = 0
	for p, u := range order {
		e := off[p]
		for k := g.Off[u]; k < g.Off[u+1]; k++ {
			v := g.Adj[k]
			adj[e], wt[e] = rank[v], g.Weight[g.slot(v, u)]
			e++
		}
		off[p+1] = e
	}
	const lanes = kernel.RelaxLanes
	err := pool.ForBlocked(ctx, (n+lanes-1)/lanes, 1, func(lo, hi int) {
		d := w.Float64(lanes * n)
		for b := lo; b < hi; b++ {
			if !relaxBatch(ctx, d, off, adj, wt, order, rank, b*lanes, a.Dist) {
				break
			}
		}
		w.PutFloat64(d)
	})
	if err == nil {
		// A batch stops early once ctx is cancelled, even in the last block.
		err = ctx.Err()
	}
	if err != nil {
		w.PutFloat64(a.Dist)
		return nil, err
	}
	return a, nil
}

// relaxBatch runs the sources at positions [p0, p0+RelaxLanes) ∩ [0, n) to
// their fixed point in the label block d and writes their rows of dist. It
// reports false, leaving the rows unwritten, once ctx is cancelled.
func relaxBatch(ctx context.Context, d []float64, off, adj []int32, wt []float64, order, rank []int32, p0 int, dist []float64) bool {
	const lanes = kernel.RelaxLanes
	n := len(order)
	inf := math.Inf(1)
	for i := range d {
		d[i] = inf
	}
	srcs := min(lanes, n-p0)
	for k := 0; k < srcs; k++ {
		d[lanes*(p0+k)+k] = 0
	}
	for back := false; kernel.RelaxSweep(d, off, adj, wt, back); back = !back {
		if ctx.Err() != nil {
			return false
		}
	}
	var rows [lanes][]float64
	for k := 0; k < srcs; k++ {
		u := int(order[p0+k])
		rows[k] = dist[u*n : (u+1)*n]
	}
	for v, p := range rank {
		lab := d[lanes*int(p) : lanes*int(p)+lanes]
		for k := 0; k < srcs; k++ {
			rows[k][v] = lab[k]
		}
	}
	return true
}
