// Package tmfg implements the parallel construction of Triangulated
// Maximally Filtered Graphs (Algorithm 1 of Yu & Shun, ICDE 2023), including
// the on-the-fly bubble tree construction (Algorithm 2).
//
// The algorithm starts from the 4-clique of the vertices with the highest
// similarity row sums and repeatedly inserts a batch ("prefix") of vertices,
// each into the triangular face maximizing the gain (the sum of the three
// new edge weights). prefix=1 reproduces the sequential TMFG exactly;
// larger prefixes deviate from it a little and need fewer rounds.
//
// Face gains are kept lazily: every live face's last computed best vertex
// sits in one max-heap, and a face is rescanned only when its entry reaches
// the top after that vertex was inserted (selectBatch gives the argument
// that the batch stays exact). Small prefixes therefore build no slower
// than large ones: at n=1000 a build takes 13–32 ms at every prefix from 1
// to 200 on a 2-vCPU Xeon. Rescans big enough to repay a worker's start-up
// run on the pool.
//
// For a fixed input the construction is deterministic regardless of the
// number of threads: ties between equal gains are broken toward smaller
// vertex and face ids, and batch insertions are applied in sorted order.
//
// The builder runs on flat memory: a sync.Pool of builders recycles the
// face table and the candidate heap and buffers across constructions,
// per-call scratch (row sums, orderings, membership sets) comes from the
// ws.Workspace, and bubble vertices are carved from a single arena so
// construction performs O(1) large allocations instead of O(n) small ones.
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

// face is a triangular face of the partially built TMFG. A face dies when a
// vertex is inserted into it. Its best vertex and gain are not kept here
// but in its entry on the builder's heap, which exists while the face
// lives.
type face struct {
	v      [3]int32
	bubble int32
}

// candidate is a (face, vertex) insertion candidate with its gain. vert is
// -1 until the face's first scan.
type candidate struct {
	gain float64
	vert int32
	face int32
}

// scanWork is the number of gain evaluations (remaining vertices per face
// scan) a worker must be handed before a rescan splits across the pool.
// On a 2-vCPU Xeon 2^15 evaluations take about 75 µs, close to the 60–100
// µs (p50) an exec.Pool helper takes to start a chunk, so smaller rescans
// run inline.
const scanWork = 1 << 15

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

// BuildWS constructs the TMFG of the n×n similarity matrix s with the given
// prefix size (batch bound) on pool, honouring cancellation at batch-round
// boundaries. prefix must be ≥ 1 and n ≥ 4. Scratch comes from w (nil
// allocates). The returned graph's CSR arrays are drawn from the workspace
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
	heap   []candidate // max-heap under candLess: one entry per live face
	batch  []candidate
	wave   []candidate // faces to scan: a selection wave, or new faces
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
	// A triangulation of n vertices has 2n−4 faces, so the heap never
	// outgrows 2n entries.
	if cap(b.heap) < 2*n {
		b.heap = make([]candidate, 0, 2*n)
	} else {
		b.heap = b.heap[:0]
	}
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
// the bubble tree and the candidate heap.
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
		face{v: [3]int32{c[0], c[1], c[2]}, bubble: 0},
		face{v: [3]int32{c[0], c[1], c[3]}, bubble: 0},
		face{v: [3]int32{c[0], c[2], c[3]}, bubble: 0},
		face{v: [3]int32{c[1], c[2], c[3]}, bubble: 0},
	)
	b.outerFace = 0 // {v1, v2, v3}, chosen as in Algorithm 1 Line 7
	b.wave = b.wave[:0]
	for fi := range b.faces {
		b.wave = append(b.wave, candidate{vert: -1, face: int32(fi)})
	}
	return b.rescan(b.wave)
}

// recomputeGain scans the remaining vertices (which must be non-empty) for
// c.face's best vertex with the unrolled max-gain kernel and stores it in c
// (remaining is sorted ascending, so the kernel's smaller-id tie rule
// matches the sequential scan). It writes only to c, so parallel calls on
// distinct candidates are safe.
func (b *builder) recomputeGain(c *candidate) {
	f := &b.faces[c.face]
	n := b.s.N
	data := b.s.Data
	d0 := data[int(f.v[0])*n : int(f.v[0])*n+n]
	d1 := data[int(f.v[1])*n : int(f.v[1])*n+n]
	d2 := data[int(f.v[2])*n : int(f.v[2])*n+n]
	c.gain, c.vert = kernel.MaxGain3(d0, d1, d2, b.remaining)
	if c.vert < 0 {
		// Every candidate's three-row gain overflowed to -Inf (possible for
		// similarity magnitudes near MaxFloat64/3), which the scan kernel
		// cannot distinguish from an empty candidate list. All candidates
		// are then equally (un)attractive; take the smallest remaining id so
		// construction stays total and deterministic. The key stays a valid
		// lazy bound: once this vertex is inserted, the face's next key is
		// -Inf at a larger id.
		c.gain, c.vert = math.Inf(-1), b.remaining[0]
	}
}

// stale reports whether c's key must be recomputed: the face was never
// scanned, or its best vertex has been inserted since.
func (b *builder) stale(c candidate) bool {
	return c.vert < 0 || b.inserted.Test(c.vert)
}

// rescan recomputes every stale key in cs and pushes all of cs onto the
// heap. The scans split across the pool only in chunks of at least
// scanWork gain evaluations.
func (b *builder) rescan(cs []candidate) error {
	if len(b.remaining) == 0 {
		return nil // construction is complete: nothing left to select
	}
	if grain := max(1, scanWork/len(b.remaining)); len(cs) <= grain {
		// Inline, without the closure ForGrain takes: most rounds' rescans
		// are this small, and the closure would cost an allocation each.
		for i := range cs {
			if b.stale(cs[i]) {
				b.recomputeGain(&cs[i])
			}
		}
	} else if err := b.pool.ForGrain(b.ctx, len(cs), grain, func(i int) {
		if b.stale(cs[i]) {
			b.recomputeGain(&cs[i])
		}
	}); err != nil {
		return err
	}
	for _, c := range cs {
		b.push(c)
	}
	return nil
}

// round executes one batch-insertion round (Lines 9–17 of Algorithm 1),
// returning promptly with ctx.Err() when the build is cancelled. Only the
// faces selection finds stale at the top of the heap and the round's new
// faces are scanned; every other face keeps its stored key.
func (b *builder) round() error {
	if err := b.ctx.Err(); err != nil {
		return err
	}
	b.rounds++
	batch, err := b.selectBatch()
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		// Cannot happen while remaining is non-empty: every live face has a
		// heap entry, and every entry names a vertex.
		panic("tmfg: empty batch with remaining vertices")
	}
	// Apply insertions sequentially (O(prefix) pointer updates). insert
	// appends the new faces to b.wave for their first scan.
	b.wave = b.wave[:0]
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
	return b.rescan(b.wave)
}

// selectBatch returns up to prefix (vertex, face) insertion pairs: the
// highest-gain candidate per face, globally ordered by candLess, truncated
// to the prefix size and deduplicated so each vertex appears once, keeping
// its highest-gain pair (Lines 9–10 of Algorithm 1).
//
// Face gains are lazy, in the CELF style. The heap holds every live face's
// last computed key. A face's gain for a vertex never changes while the
// face lives, and the remaining set only shrinks, so the face's true key
// never beats its stored key under candLess: an equal gain comes with a
// larger vertex id, because the stored best was the smallest id at that
// gain. An entry whose vertex is still remaining is exact, and an exact
// entry at the top beats every live face's true key.
//
// Selection therefore pops waves of the entries still wanted. Exact
// entries popped before the wave's first stale one are final. The wave's
// stale entries are rescanned and pushed back with the exact entries held
// after them, and the next wave starts. The final entries are the first
// prefix of a full candLess sort of every live face's exact key, and
// candLess is a total order (face ids are unique), so the batch is the one
// a rescan of every face would give.
func (b *builder) selectBatch() ([]candidate, error) {
	top := b.batch[:0]
	for len(top) < b.prefix && len(b.heap) > 0 {
		wave := b.wave[:0]
		for want := b.prefix - len(top); want > 0 && len(b.heap) > 0; want-- {
			c := b.pop()
			if len(wave) == 0 && !b.stale(c) {
				top = append(top, c)
			} else {
				wave = append(wave, c)
			}
		}
		b.wave = wave
		if err := b.rescan(wave); err != nil {
			return nil, err
		}
	}
	// Deduplicate by vertex in place: the first occurrence has the vertex's
	// highest gain. A face that loses keeps its entry, which the winner's
	// insert leaves stale, so it goes back on the heap.
	out := top[:0]
	for _, c := range top {
		if b.taken.TestAndSet(c.vert) {
			b.push(c)
		} else {
			out = append(out, c)
		}
	}
	for _, c := range out {
		b.taken.Clear(c.vert)
	}
	b.batch = out
	return out, nil
}

// push adds c to the candidate heap, whose root is the best entry under
// candLess.
func (b *builder) push(c candidate) {
	h := append(b.heap, c)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !candLess(c, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = c
	b.heap = h
}

// pop removes and returns the best entry of the non-empty candidate heap.
func (b *builder) pop() candidate {
	h := b.heap
	best := h[0]
	n := len(h) - 1
	c := h[n]
	i := 0
	for {
		k := 2*i + 1
		if k >= n {
			break
		}
		if k+1 < n && candLess(h[k+1], h[k]) {
			k++
		}
		if !candLess(h[k], c) {
			break
		}
		h[i] = h[k]
		i = k
	}
	h[i] = c
	b.heap = h[:n]
	return best
}

// insert adds vertex v into face fi: three new edges, three new faces, one
// new bubble (Algorithm 2). The new faces are appended to b.wave unscanned.
func (b *builder) insert(v, fi int32) {
	f := &b.faces[fi]
	x, y, z := f.v[0], f.v[1], f.v[2]
	b.inserted.Set(v)
	b.edges = append(b.edges, [2]int32{v, x}, [2]int32{v, y}, [2]int32{v, z})

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
		face{v: [3]int32{v, x, y}, bubble: newBubble},
		face{v: [3]int32{v, y, z}, bubble: newBubble},
		face{v: [3]int32{v, x, z}, bubble: newBubble},
	)
	if fi == b.outerFace {
		b.outerFace = base // {v, x, y}
	}
	b.wave = append(b.wave,
		candidate{vert: -1, face: base},
		candidate{vert: -1, face: base + 1},
		candidate{vert: -1, face: base + 2})
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
