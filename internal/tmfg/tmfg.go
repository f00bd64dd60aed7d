// Package tmfg implements the parallel construction of Triangulated
// Maximally Filtered Graphs (Algorithm 1 of Yu & Shun, ICDE 2023), including
// the on-the-fly bubble tree construction (Algorithm 2).
//
// The algorithm starts from the 4-clique of the vertices with the highest
// similarity row sums and repeatedly inserts a batch ("prefix") of vertices,
// each into the triangular face maximizing the gain (the sum of the three
// new edge weights). prefix=1 reproduces the sequential TMFG exactly;
// larger prefixes deviate from it but expose more parallelism.
//
// For a fixed input the construction is deterministic regardless of the
// number of threads: ties between equal gains are broken toward smaller
// vertex and face ids, and batch insertions are applied in sorted order.
//
// The builder runs on flat memory: a sync.Pool of builders recycles the
// face table and candidate buffers across constructions, per-call scratch
// (row sums, orderings, membership sets) comes from the ws.Workspace, and
// bubble vertices are carved from a single arena so construction performs
// O(1) large allocations instead of O(n) small ones.
package tmfg

import (
	"context"
	"fmt"
	"math"
	"sync"

	"pfg/internal/bitset"
	"pfg/internal/bubbletree"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/kernel"
	"pfg/internal/matrix"
	"pfg/internal/ws"
)

// Result is the output of TMFG construction.
type Result struct {
	// Graph is the TMFG with similarity edge weights. It has exactly
	// 3n-6 edges and is planar by construction.
	Graph *graph.Graph
	// Edges lists the undirected edges in insertion order (the first six
	// are the initial 4-clique).
	Edges [][2]int32
	// Tree is the bubble tree built during construction (n-3 nodes).
	Tree *bubbletree.Tree
	// Initial is the starting 4-clique, ordered by decreasing row sum.
	Initial [4]int32
	// Rounds is the number of batch-insertion rounds executed.
	Rounds int
}

// EdgeWeightSum returns the total similarity weight captured by the TMFG,
// the objective that the weighted maximal planar graph problem maximizes.
func (r *Result) EdgeWeightSum(s *matrix.Sym) float64 {
	return matrix.EdgeWeightSum(s, r.Edges)
}

// face is a triangular face of the partially built TMFG.
type face struct {
	v      [3]int32
	bubble int32
	alive  bool
	best   int32 // best remaining vertex to insert; -1 none, -2 stale
	gain   float64
}

// needsGain marks a freshly created face whose best vertex has not been
// computed yet, distinguishing it from -1 ("no remaining vertex fits").
const needsGain = int32(-2)

// candidate is a (face, vertex) insertion candidate with its gain.
type candidate struct {
	gain float64
	vert int32
	face int32
}

// candLess orders candidates by decreasing gain, breaking ties toward the
// smaller vertex id and then the smaller face id, to keep the construction
// deterministic.
func candLess(a, b candidate) bool {
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.vert != b.vert {
		return a.vert < b.vert
	}
	return a.face < b.face
}

// Build constructs the TMFG of the n×n similarity matrix s with the given
// prefix size (batch bound) on the shared default pool, without cancellation.
func Build(s *matrix.Sym, prefix int) (*Result, error) {
	return BuildCtx(context.Background(), exec.Default(), s, prefix)
}

// BuildCtx constructs the TMFG on the given pool, honouring cancellation at
// batch-round boundaries, with a workspace from the process-wide pool.
func BuildCtx(ctx context.Context, pool *exec.Pool, s *matrix.Sym, prefix int) (*Result, error) {
	w := ws.Get()
	defer ws.Put(w)
	return BuildWS(ctx, pool, w, s, prefix)
}

// BuildWS is BuildCtx with explicit workspace scratch. prefix must be ≥ 1
// and n ≥ 4. The returned graph's CSR arrays are drawn from the workspace
// and owned by the result (release with Result.Graph.Release when the
// caller controls the graph's lifetime).
func BuildWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, s *matrix.Sym, prefix int) (*Result, error) {
	n := s.N
	if n < 4 {
		return nil, fmt.Errorf("tmfg: need at least 4 vertices, have %d", n)
	}
	if prefix < 1 {
		return nil, fmt.Errorf("tmfg: prefix must be ≥ 1, got %d", prefix)
	}
	b := builderPool.Get().(*builder)
	defer b.recycle()
	b.init(ctx, pool, w, s, prefix)
	if err := b.initClique(); err != nil {
		return nil, err
	}
	for len(b.remaining) > 0 {
		if err := b.round(); err != nil {
			return nil, err
		}
	}
	b.finishTree()
	g, err := graph.FromEdgesWS(w, n, b.weightedEdges())
	if err != nil {
		return nil, fmt.Errorf("tmfg: internal error building graph: %w", err)
	}
	return &Result{
		Graph:   g,
		Edges:   b.edges,
		Tree:    b.tree,
		Initial: b.initial,
		Rounds:  b.rounds,
	}, nil
}

// builderPool recycles builders (and their typed scratch: the face table,
// candidate buffers, edge-weight scratch) across constructions.
var builderPool = sync.Pool{New: func() any { return new(builder) }}

type builder struct {
	ctx    context.Context
	pool   *exec.Pool
	w      *ws.Workspace
	s      *matrix.Sym
	prefix int

	faces     []face
	edges     [][2]int32 // escapes into Result: always freshly allocated
	remaining []int32    // vertices not yet inserted (workspace buffer)
	inserted  *bitset.Set

	tree       *bubbletree.Tree
	vertsArena []int32 // backing array for all bubble vertex quads
	outerFace  int32   // face index of the current outer face

	// Bubble-tree child lists are kept as intrusive linked lists during
	// construction (workspace buffers, appended at the tail so insertion
	// order is preserved) and materialized into one flat arena by
	// finishTree — one allocation instead of one per bubble.
	firstChild []int32
	lastChild  []int32
	nextSib    []int32

	initial [4]int32
	rounds  int

	// scratch (recycled via builderPool)
	cands  []candidate // top-prefix heap of selectBatch
	batch  []candidate
	need   []int32 // face ids requiring gain recomputation this round
	wedges []graph.Edge
	taken  *bitset.Set // workspace bitset, cleared between uses
}

// init prepares a (possibly recycled) builder for one construction.
func (b *builder) init(ctx context.Context, pool *exec.Pool, w *ws.Workspace, s *matrix.Sym, prefix int) {
	n := s.N
	b.ctx, b.pool, b.w, b.s, b.prefix = ctx, pool, w, s, prefix
	if cap(b.faces) < 3*n {
		b.faces = make([]face, 0, 3*n)
	} else {
		b.faces = b.faces[:0]
	}
	b.edges = make([][2]int32, 0, 3*n-6)
	b.remaining = w.Int32(n)[:0]
	b.inserted = w.Bitset(n)
	b.taken = w.Bitset(n)
	// Tree nodes and the vertex arena escape with the result: fresh, but
	// sized exactly so construction never regrows them.
	b.tree = &bubbletree.Tree{Nodes: make([]bubbletree.Node, 0, n-3)}
	b.vertsArena = make([]int32, 0, 4*(n-3))
	b.firstChild = w.Int32(n)
	b.lastChild = w.Int32(n)
	b.nextSib = w.Int32(n)
	for i := 0; i < n; i++ {
		b.firstChild[i], b.lastChild[i], b.nextSib[i] = -1, -1, -1
	}
	b.cands = b.cands[:0]
	b.need = b.need[:0]
	b.rounds = 0
	b.outerFace = 0
}

// recycle releases workspace buffers and drops result-owned references
// before returning the builder to the pool.
func (b *builder) recycle() {
	b.w.PutInt32(b.remaining[:0])
	b.w.PutInt32(b.firstChild)
	b.w.PutInt32(b.lastChild)
	b.w.PutInt32(b.nextSib)
	b.w.PutBitset(b.inserted)
	b.w.PutBitset(b.taken)
	b.ctx, b.pool, b.w, b.s = nil, nil, nil, nil
	b.edges, b.remaining, b.inserted, b.taken = nil, nil, nil, nil
	b.firstChild, b.lastChild, b.nextSib = nil, nil, nil
	b.tree, b.vertsArena = nil, nil
	builderPool.Put(b)
}

// quad carves a sorted 4-vertex bubble off the arena.
func (b *builder) quad(x0, x1, x2, x3 int32) []int32 {
	i := len(b.vertsArena)
	b.vertsArena = append(b.vertsArena, x0, x1, x2, x3)
	q := b.vertsArena[i : i+4 : i+4]
	for i := 1; i < 4; i++ {
		for j := i; j > 0 && q[j] < q[j-1]; j-- {
			q[j], q[j-1] = q[j-1], q[j]
		}
	}
	return q
}

// initClique picks the four vertices with the highest similarity row sums
// (ties toward smaller ids), adds the 6 clique edges and 4 faces, and seeds
// the bubble tree and gain table.
func (b *builder) initClique() error {
	n := b.s.N
	sums := b.w.Float64(n)
	defer b.w.PutFloat64(sums)
	if err := b.pool.ForGrain(b.ctx, n, 16, func(i int) { sums[i] = b.s.RowSum(i) }); err != nil {
		return err
	}
	order := b.w.Int32(n)
	defer b.w.PutInt32(order)
	for i := range order {
		order[i] = int32(i)
	}
	sortBuf := b.w.Int32(n)
	defer b.w.PutInt32(sortBuf)
	err := exec.SortWithBuf(b.ctx, b.pool, order, sortBuf, func(a, c int32) bool {
		if sums[a] != sums[c] {
			return sums[a] > sums[c]
		}
		return a < c
	})
	if err != nil {
		return err
	}
	copy(b.initial[:], order[:4])
	c := b.initial
	for i := 0; i < 4; i++ {
		b.inserted.Set(c[i])
		for j := i + 1; j < 4; j++ {
			b.edges = append(b.edges, [2]int32{c[i], c[j]})
		}
	}
	b.remaining = b.remaining[:0]
	b.remaining = append(b.remaining, order[4:]...)
	// Keep remaining sorted by id for deterministic scans.
	if err := exec.SortWithBuf(b.ctx, b.pool, b.remaining, sortBuf, func(a, c int32) bool { return a < c }); err != nil {
		return err
	}

	b.tree.Nodes = append(b.tree.Nodes, bubbletree.Node{
		Vertices: b.quad(c[0], c[1], c[2], c[3]),
		Parent:   -1,
		Sep:      [3]int32{bubbletree.NoVertex, bubbletree.NoVertex, bubbletree.NoVertex},
	})
	b.tree.Root = 0
	b.faces = append(b.faces,
		face{v: [3]int32{c[0], c[1], c[2]}, bubble: 0, alive: true},
		face{v: [3]int32{c[0], c[1], c[3]}, bubble: 0, alive: true},
		face{v: [3]int32{c[0], c[2], c[3]}, bubble: 0, alive: true},
		face{v: [3]int32{c[1], c[2], c[3]}, bubble: 0, alive: true},
	)
	b.outerFace = 0 // {v1, v2, v3}, chosen as in Algorithm 1 Line 7
	for fi := range b.faces {
		b.recomputeGain(int32(fi))
	}
	return nil
}

// recomputeGain scans the remaining vertices to find face fi's best vertex
// with the unrolled max-gain kernel (remaining is sorted ascending, so the
// kernel's smaller-id tie rule matches the sequential scan). Safe to call
// from parallel goroutines (writes only to faces[fi]).
func (b *builder) recomputeGain(fi int32) {
	f := &b.faces[fi]
	n := b.s.N
	data := b.s.Data
	d0 := data[int(f.v[0])*n : int(f.v[0])*n+n]
	d1 := data[int(f.v[1])*n : int(f.v[1])*n+n]
	d2 := data[int(f.v[2])*n : int(f.v[2])*n+n]
	f.gain, f.best = kernel.MaxGain3(d0, d1, d2, b.remaining)
	if f.best < 0 && len(b.remaining) > 0 {
		// Every candidate's three-row gain overflowed to -Inf (possible for
		// similarity magnitudes near MaxFloat64/3), which the scan kernel
		// cannot distinguish from an empty candidate list. All candidates
		// are then equally (un)attractive; take the smallest remaining id so
		// construction stays total and deterministic.
		f.gain, f.best = math.Inf(-1), b.remaining[0]
	}
}

// round executes one batch-insertion round (Lines 9–17 of Algorithm 1),
// returning promptly with ctx.Err() when the build is cancelled.
func (b *builder) round() error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	b.rounds++
	batch := b.selectBatch()
	if len(batch) == 0 {
		// Cannot happen while remaining is non-empty: every alive face has
		// a best vertex whenever remaining vertices exist.
		panic("tmfg: empty batch with remaining vertices")
	}
	// Apply insertions sequentially (O(prefix) pointer updates); all heavy
	// gain recomputation below is parallel. insert appends the new face ids
	// to b.need.
	b.need = b.need[:0]
	for _, c := range batch {
		b.insert(c.vert, c.face)
	}
	// Remove the batch from remaining with an in-place compaction: the scan
	// is memory-bandwidth bound, so a sequential pass beats a parallel
	// filter's bookkeeping at every realistic size.
	k := 0
	for _, v := range b.remaining {
		if !b.inserted.Test(v) {
			b.remaining[k] = v
			k++
		}
	}
	b.remaining = b.remaining[:k]
	// Collect the other faces needing a new best vertex: alive faces whose
	// recorded best was just inserted. New faces carry the needsGain
	// sentinel and were collected by insert, so the scan cannot duplicate
	// them (a duplicate would race inside the parallel recompute).
	for fi := range b.faces {
		f := &b.faces[fi]
		if f.alive && f.best >= 0 && b.inserted.Test(f.best) {
			b.need = append(b.need, int32(fi))
		}
	}
	return b.pool.ForGrain(b.ctx, len(b.need), 1, func(i int) { b.recomputeGain(b.need[i]) })
}

// selectBatch returns up to prefix (vertex, face) insertion pairs: the
// highest-gain candidate per face, globally ordered by candLess,
// deduplicated so each vertex appears once (keeping its highest-gain pair),
// truncated to the prefix size (Lines 9–10 of Algorithm 1).
//
// Only the top prefix candidates are ever ordered. A bounded heap keeps the
// best prefix seen so far with its worst at the root, so a face that cannot
// enter costs one comparison; the survivors are then heap-sorted in place.
// candLess is a total order (face ids are unique), so this is the same list,
// in the same order, as sorting every candidate and keeping the first
// prefix, at O(F log prefix) per round instead of O(F log F) for F live
// faces.
func (b *builder) selectBatch() []candidate {
	top := b.cands[:0]
	for i := range b.faces {
		f := &b.faces[i]
		if !f.alive || f.best < 0 {
			continue
		}
		c := candidate{gain: f.gain, vert: f.best, face: int32(i)}
		switch {
		case len(top) < b.prefix:
			top = append(top, c)
			siftUpWorst(top, len(top)-1)
		case candLess(c, top[0]):
			top[0] = c
			siftDownWorst(top, 0, len(top))
		}
	}
	// Heap-sort: moving the worst survivor to the back each step leaves the
	// slice best-first under candLess.
	for end := len(top) - 1; end > 0; end-- {
		top[0], top[end] = top[end], top[0]
		siftDownWorst(top, 0, end)
	}
	b.cands = top
	// Deduplicate by vertex: the sorted order guarantees the first
	// occurrence has the maximum gain for that vertex.
	out := b.batch[:0]
	for _, c := range top {
		if !b.taken.TestAndSet(c.vert) {
			out = append(out, c)
		}
	}
	for _, c := range out {
		b.taken.Clear(c.vert)
	}
	b.batch = out
	return out
}

// siftUpWorst restores the heap property of h (the worst candidate under
// candLess at the root) after h[i] was appended.
func siftUpWorst(h []candidate, i int) {
	c := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(h[p], c) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
}

// siftDownWorst restores the heap property of h[:n] after h[i] was replaced.
func siftDownWorst(h []candidate, i, n int) {
	c := h[i]
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if k+1 < n && candLess(h[k], h[k+1]) {
			k++
		}
		if !candLess(c, h[k]) {
			break
		}
		h[i] = h[k]
		i = k
	}
	h[i] = c
}

// insert adds vertex v into face fi: three new edges, three new faces, one
// new bubble (Algorithm 2). The new face ids are appended to b.need.
func (b *builder) insert(v, fi int32) {
	f := &b.faces[fi]
	x, y, z := f.v[0], f.v[1], f.v[2]
	b.inserted.Set(v)
	b.edges = append(b.edges, [2]int32{v, x}, [2]int32{v, y}, [2]int32{v, z})
	f.alive = false

	// New bubble b* = {v, x, y, z}.
	newBubble := int32(len(b.tree.Nodes))
	node := bubbletree.Node{
		Vertices: b.quad(v, x, y, z),
		Sep:      f.v,
		Parent:   -1,
	}
	old := f.bubble
	if fi == b.outerFace {
		// Inserting into the outer face: b* becomes the parent of the old
		// root, and the outer face moves to {v, x, y}.
		node.Sep = [3]int32{bubbletree.NoVertex, bubbletree.NoVertex, bubbletree.NoVertex}
		b.tree.Nodes = append(b.tree.Nodes, node)
		oldRoot := b.tree.Root
		b.tree.Nodes[oldRoot].Parent = newBubble
		b.tree.Nodes[oldRoot].Sep = f.v
		b.addChild(newBubble, oldRoot)
		b.tree.Root = newBubble
	} else {
		node.Parent = old
		b.tree.Nodes = append(b.tree.Nodes, node)
		b.addChild(old, newBubble)
	}

	base := int32(len(b.faces))
	b.faces = append(b.faces,
		face{v: [3]int32{v, x, y}, bubble: newBubble, alive: true, best: needsGain},
		face{v: [3]int32{v, y, z}, bubble: newBubble, alive: true, best: needsGain},
		face{v: [3]int32{v, x, z}, bubble: newBubble, alive: true, best: needsGain},
	)
	if fi == b.outerFace {
		b.outerFace = base // {v, x, y}
	}
	b.need = append(b.need, base, base+1, base+2)
}

// addChild appends c to p's child list (tail insertion preserves the order
// the old per-node append produced, which the direction pass's float sums
// depend on bit for bit).
func (b *builder) addChild(p, c int32) {
	if b.lastChild[p] < 0 {
		b.firstChild[p] = c
	} else {
		b.nextSib[b.lastChild[p]] = c
	}
	b.lastChild[p] = c
}

// finishTree materializes the intrusive child lists into per-node Children
// slices carved from one flat arena (which escapes with the tree). Must run
// exactly once, after the last insert.
func (b *builder) finishTree() {
	nn := len(b.tree.Nodes)
	if nn <= 1 {
		return
	}
	arena := make([]int32, 0, nn-1)
	for i := range b.tree.Nodes {
		start := len(arena)
		for c := b.firstChild[i]; c >= 0; c = b.nextSib[c] {
			arena = append(arena, c)
		}
		if len(arena) > start {
			b.tree.Nodes[i].Children = arena[start:len(arena):len(arena)]
		}
	}
}

// weightedEdges attaches similarity weights to the edge list, reusing the
// builder's scratch (the graph copies what it keeps).
func (b *builder) weightedEdges() []graph.Edge {
	if cap(b.wedges) < len(b.edges) {
		b.wedges = make([]graph.Edge, len(b.edges))
	}
	out := b.wedges[:len(b.edges)]
	for i, e := range b.edges {
		out[i] = graph.Edge{U: e[0], V: e[1], W: b.s.At(int(e[0]), int(e[1]))}
	}
	return out
}
