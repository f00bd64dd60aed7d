package graph

import (
	"context"
	"math"

	"pfg/internal/bitset"
	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// distHeap wraps the 4-ary kernel.Heap4 with workspace-backed storage: one
// heap serves every cold source (chain start) handled by an APSP worker.
// The 4-ary layout halves the sift depth of a binary heap and keeps each
// level's children on one or two cache lines.
type distHeap struct {
	kernel.Heap4
}

// acquire sizes the heap for n vertices from the workspace. Call Reset
// before each subsequent source and release when the worker is done.
func (h *distHeap) acquire(w *ws.Workspace, n int) {
	h.Init(w.Int32(n), w.Float64(n), w.Int32(n))
}

// release returns the heap's arrays to the workspace.
func (h *distHeap) release(w *ws.Workspace) {
	verts, dist, pos := h.Storage()
	w.PutInt32(verts)
	w.PutFloat64(dist)
	w.PutInt32(pos)
}

// dijkstraInto runs Dijkstra from src using the caller's heap (already
// acquired and reset), writing distances into out and the shortest-path
// tree into parent and arc: parent[v] is v's predecessor (-1 for src and
// for unreached vertices) and arc[v] the CSR slot of the arc parent[v]→v.
// No settled set is needed: with non-negative weights a popped vertex can
// never be improved, so DecreaseKey's d ≥ dist[u] early-out filters stale
// relaxations. That argument requires non-negative weights, so the pop
// counter turns a violation (negative or NaN weights re-inserting popped
// vertices) into a panic instead of an unbounded loop.
func (g *Graph) dijkstraInto(h *distHeap, src int32, out []float64, parent, arc []int32) {
	for i := range parent {
		parent[i] = -1
	}
	h.DecreaseKey(src, 0)
	pops := 0
	// Tentative distances are computed for a whole adjacency chunk before
	// any heap update: the batch keeps the weight loads and adds pipelined
	// instead of interleaving them with the heap's dependent branches.
	var cand [8]float64
	for h.Len() > 0 {
		v := h.PopMin()
		if pops++; pops > g.N {
			panic("graph: Dijkstra requires non-negative finite edge weights")
		}
		dv := h.DistOf(v)
		lo, hi := g.Off[v], g.Off[v+1]
		adj := g.Adj[lo:hi]
		wts := g.Weight[lo:hi]
		for base := 0; base < len(adj); base += len(cand) {
			m := min(len(cand), len(adj)-base)
			for k := 0; k < m; k++ {
				cand[k] = dv + wts[base+k]
			}
			for k := 0; k < m; k++ {
				if u := adj[base+k]; h.DecreaseKey(u, cand[k]) {
					parent[u], arc[u] = v, lo+int32(base+k)
				}
			}
		}
	}
	copy(out, h.Dists())
}

// Dijkstra computes single-source shortest path distances from src using the
// graph's edge weights, which must be non-negative. Unreachable vertices get
// +Inf. The out slice, if non-nil and of length g.N, is reused.
func (g *Graph) Dijkstra(src int32, out []float64) []float64 {
	if out == nil || len(out) != g.N {
		out = make([]float64, g.N)
	}
	w := ws.Get()
	defer ws.Put(w)
	var h distHeap
	h.acquire(w, g.N)
	parent, arc := w.Int32(g.N), w.Int32(g.N)
	g.dijkstraInto(&h, src, out, parent, arc)
	w.PutInt32(parent)
	w.PutInt32(arc)
	h.release(w)
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
// cancellation is checked between sources. Weights must be non-negative
// (+Inf is allowed); a negative or NaN weight panics. Scratch and the
// result's Dist array are drawn from w (nil allocates): callers that
// discard the APSP before releasing the workspace may return it with
// w.PutFloat64(a.Dist).
//
// Sources are visited in BFS order, so consecutive sources are mostly
// neighbours, and that order is cut into chains, about eight per worker.
// A chain's first source runs Dijkstra. Every later source re-roots the
// previous source's shortest-path tree at itself, labels the tree from the
// new root, and runs a FIFO label-correcting pass to a fixed point; on
// filtered graphs that pass relaxes each arc little more than once. A source
// the previous tree does not reach starts cold with Dijkstra again.
//
// Each row is bit-identical to Graph.Dijkstra's, whatever the chain layout
// or worker count. With round-to-nearest and w ≥ 0, fl(a+w) is monotone in
// a and never below a, so the least fixed point of
// d(x) = min_p fl(d(p) + w(p,x)), d(src) = 0, is the minimum over walks of
// the left-to-right float path sum. Dijkstra computes that minimum, and so
// does a label-correcting pass whose starting labels are float sums of real
// walks (tree paths) and which stops only at a fixed point.
func (g *Graph) AllPairsShortestPathsWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace) (*APSP, error) {
	for _, x := range g.Weight {
		// A negative weight would let the label-correcting pass cycle
		// forever; one check here replaces a per-relaxation guard.
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
	chains := min(n, 8*pool.Workers())
	err := pool.ForBlocked(ctx, chains, 1, func(lo, hi int) {
		var t spTree
		t.acquire(w, n)
		for c := lo; c < hi; c++ {
			t.chain(ctx, g, order[c*n/chains:(c+1)*n/chains], a.Dist)
		}
		t.release(w)
	})
	if err == nil {
		// A chain stops early once ctx is cancelled, even in the last block.
		err = ctx.Err()
	}
	if err != nil {
		w.PutFloat64(a.Dist)
		return nil, err
	}
	return a, nil
}

// spTree is one worker's state for a chain of sources: the current source's
// shortest-path tree and the scratch to re-root and correct it. Every array
// comes from the workspace.
type spTree struct {
	heap     distHeap
	parent   []int32 // tree predecessor; -1 for the root and unreached vertices
	arc      []int32 // CSR slot of the arc parent[v]→v
	childOff []int32 // child lists of the re-rooted tree, by counting sort
	child    []int32
	queue    []int32 // tree BFS order, then the FIFO ring
	queued   *bitset.Set
}

func (t *spTree) acquire(w *ws.Workspace, n int) {
	t.heap.acquire(w, n)
	t.parent, t.arc = w.Int32(n), w.Int32(n)
	t.childOff, t.child = w.Int32(n+1), w.Int32(n)
	t.queue = w.Int32(n)
	t.queued = w.Bitset(n)
}

func (t *spTree) release(w *ws.Workspace) {
	t.heap.release(w)
	w.PutInt32(t.parent)
	w.PutInt32(t.arc)
	w.PutInt32(t.childOff)
	w.PutInt32(t.child)
	w.PutInt32(t.queue)
	w.PutBitset(t.queued)
	*t = spTree{}
}

// chain writes the distance rows of srcs into dist, each source warm-started
// from the previous one's tree. It returns early once ctx is cancelled.
func (t *spTree) chain(ctx context.Context, g *Graph, srcs []int32, dist []float64) {
	n := g.N
	for i, s := range srcs {
		if ctx.Err() != nil {
			return
		}
		row := dist[int(s)*n : (int(s)+1)*n]
		if i == 0 || t.parent[s] < 0 {
			// First source of the chain, or unreached from the previous one.
			t.heap.Reset()
			g.dijkstraInto(&t.heap, s, row, t.parent, t.arc)
			continue
		}
		t.reroot(g, s)
		t.relabel(g, s, row)
	}
}

// reroot makes s the root of the current tree by reversing the parent
// pointers on the path from s to the old root. Each reversed arc's slot is
// looked up in its own tail's adjacency, since arc weights need not be
// symmetric.
func (t *spTree) reroot(g *Graph, s int32) {
	prev, prevArc := int32(-1), int32(-1)
	for v := s; v >= 0; {
		next := t.parent[v]
		t.parent[v], t.arc[v] = prev, prevArc
		if next >= 0 {
			prevArc = int32(g.slot(v, next))
		}
		prev, v = v, next
	}
}

// relabel computes the distances from s: tree-path labels first, then a
// FIFO label-correcting pass to the fixed point, updating the tree as it
// goes. Vertices the tree does not reach start at +Inf.
func (t *spTree) relabel(g *Graph, s int32, row []float64) {
	n := g.N
	inf := math.Inf(1)
	for i := range row {
		row[i] = inf
	}
	// Child lists of the re-rooted tree by counting sort over parent.
	off := t.childOff
	clear(off)
	for _, p := range t.parent {
		if p >= 0 {
			off[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	for v, p := range t.parent {
		if p >= 0 {
			t.child[off[p]] = int32(v)
			off[p]++
		}
	}
	// off[p] now ends p's list, which starts at off[p-1] (0 for p = 0).
	// Tree BFS from s: labels fl(d(parent) + w) in the queue's order.
	q := t.queue
	q[0], row[s] = s, 0
	k := 1
	for qh := 0; qh < k; qh++ {
		v := q[qh]
		lo := int32(0)
		if v > 0 {
			lo = off[v-1]
		}
		for _, c := range t.child[lo:off[v]] {
			row[c] = row[v] + g.Weight[t.arc[c]]
			q[k] = c
			k++
		}
	}
	// Queue every reached vertex in tree BFS order; a vertex whose tree
	// label overflowed to +Inf is unreached and leaves the tree.
	m := 0
	for _, v := range q[:k] {
		if row[v] < inf {
			q[m] = v
			m++
			t.queued.Set(v)
		} else {
			t.parent[v] = -1
		}
	}
	// FIFO label correcting over the ring q: each vertex is queued at most
	// once at a time, so n slots suffice.
	qh, qt, size := 0, m%n, m
	for size > 0 {
		v := q[qh]
		if qh++; qh == n {
			qh = 0
		}
		size--
		t.queued.Clear(v)
		dv := row[v]
		for a := g.Off[v]; a < g.Off[v+1]; a++ {
			u := g.Adj[a]
			if d := dv + g.Weight[a]; d < row[u] {
				row[u], t.parent[u], t.arc[u] = d, v, a
				if !t.queued.TestAndSet(u) {
					q[qt] = u
					if qt++; qt == n {
						qt = 0
					}
					size++
				}
			}
		}
	}
}
