// Package bubbletree implements the bubble tree of Song et al.: a tree whose
// nodes are "bubbles" (maximal planar subgraphs whose 3-cliques are
// non-separating) and whose edges are the separating triangles of a maximal
// planar graph.
//
// Two constructions are provided. TMFG construction (package tmfg) builds
// the tree incrementally in O(n) work using Algorithm 2 of Yu & Shun.
// BuildGenericCtx implements the original O(n²) algorithm (triangle
// enumeration plus separation testing) and works for any maximal planar
// graph, e.g. the PMFG baseline. DirectEdgesCtx implements Algorithm 3 (the
// linear-work interior versus exterior strength computation), generalized
// to arbitrary bubble sizes so it applies to both constructions.
//
// Scratch sets on these paths are dense bitsets and flat CSR groupings from
// a ws.Workspace rather than map[int32]bool, so repeated constructions on a
// warm workspace avoid per-call hashing and allocation.
package bubbletree

import (
	"context"
	"fmt"
	"slices"

	"pfg/internal/bitset"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/ws"
)

// NoVertex marks an unused vertex slot (e.g. the root's separating triangle).
const NoVertex = int32(-1)

// Node is one bubble in the tree.
type Node struct {
	// Vertices of the bubble. TMFG bubbles are 4-cliques; generic bubbles
	// may be larger. Sorted ascending.
	Vertices []int32
	// Sep is the separating triangle shared with the parent bubble
	// ({NoVertex, NoVertex, NoVertex} for the root).
	Sep [3]int32
	// Parent is the parent node id, or -1 for the root.
	Parent int32
	// Children are the child node ids.
	Children []int32
}

// Tree is a rooted undirected bubble tree. The rooting satisfies the
// interior invariant: all vertices in the subtree of a non-root node b,
// other than the corners of b.Sep, lie in the interior of b.Sep.
type Tree struct {
	Nodes []Node
	Root  int32
}

// NumNodes returns the number of bubbles.
func (t *Tree) NumNodes() int { return len(t.Nodes) }

// VertexBubblesInto fills out with one group per graph vertex holding the
// ascending bubble node ids containing it, built with a two-pass
// count-then-fill over the nodes.
func (t *Tree) VertexBubblesInto(w *ws.Workspace, out *ws.Grouping, n int) {
	counts := w.Int32(n)
	clear(counts)
	for b := range t.Nodes {
		for _, v := range t.Nodes[b].Vertices {
			counts[v]++
		}
	}
	cur := out.StartFromCounts(counts, counts)
	for b := range t.Nodes {
		for _, v := range t.Nodes[b].Vertices {
			out.Data[cur[v]] = int32(b)
			cur[v]++
		}
	}
	w.PutInt32(counts)
}

// Validate checks structural tree invariants: parent/child consistency, a
// single root, connectivity, and that every non-root separating triangle is
// a subset of both its own and its parent's vertices.
func (t *Tree) Validate() error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("bubbletree: empty tree")
	}
	if t.Root < 0 || int(t.Root) >= len(t.Nodes) {
		return fmt.Errorf("bubbletree: root %d out of range", t.Root)
	}
	if t.Nodes[t.Root].Parent != -1 {
		return fmt.Errorf("bubbletree: root has parent %d", t.Nodes[t.Root].Parent)
	}
	seen := make([]bool, len(t.Nodes))
	queue := []int32{t.Root}
	seen[t.Root] = true
	count := 1
	for len(queue) > 0 {
		b := queue[0]
		queue = queue[1:]
		for _, c := range t.Nodes[b].Children {
			if int(c) >= len(t.Nodes) || c < 0 {
				return fmt.Errorf("bubbletree: node %d has bad child %d", b, c)
			}
			if t.Nodes[c].Parent != b {
				return fmt.Errorf("bubbletree: child %d of %d has parent %d", c, b, t.Nodes[c].Parent)
			}
			if seen[c] {
				return fmt.Errorf("bubbletree: node %d reached twice", c)
			}
			seen[c] = true
			count++
			queue = append(queue, c)
		}
	}
	if count != len(t.Nodes) {
		return fmt.Errorf("bubbletree: %d of %d nodes reachable from root", count, len(t.Nodes))
	}
	for b := range t.Nodes {
		n := &t.Nodes[b]
		if int32(b) == t.Root {
			continue
		}
		has := func(vs []int32, x int32) bool {
			for _, v := range vs {
				if v == x {
					return true
				}
			}
			return false
		}
		for _, s := range n.Sep {
			if !has(n.Vertices, s) {
				return fmt.Errorf("bubbletree: node %d sep vertex %d not in bubble", b, s)
			}
			if !has(t.Nodes[n.Parent].Vertices, s) {
				return fmt.Errorf("bubbletree: node %d sep vertex %d not in parent", b, s)
			}
		}
	}
	return nil
}

// SeparatingTrianglesCtx returns all triangles of g whose removal
// disconnects g, in canonical (sorted-corner) order, on pool with
// cooperative cancellation (the per-triangle separation tests dominate).
func SeparatingTrianglesCtx(ctx context.Context, pool *exec.Pool, g *graph.Graph) ([][3]int32, error) {
	w := ws.Get()
	defer ws.Put(w)
	tris := g.Triangles()
	sep := make([]bool, len(tris))
	err := pool.ForBlocked(ctx, len(tris), 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sep[i] = g.NumComponentsWithout(w, tris[i][:]) > 1
		}
	})
	if err != nil {
		return nil, err
	}
	var out [][3]int32
	for i, tr := range tris {
		if sep[i] {
			out = append(out, tr)
		}
	}
	return out, nil
}

// BuildGenericCtx constructs the bubble tree of a maximal planar graph
// using the original algorithm: enumerate triangles, test each for
// separation, and recursively split the graph at separating triangles. The
// tree is rooted at the bubble with the smallest vertex set start so that
// the interior invariant holds (any rooting of a bubble tree satisfies it).
// It runs on pool with cooperative cancellation, checked during triangle
// testing and between recursive splits.
func BuildGenericCtx(ctx context.Context, pool *exec.Pool, g *graph.Graph) (*Tree, error) {
	if g.N < 3 {
		return nil, fmt.Errorf("bubbletree: graph too small (n=%d)", g.N)
	}
	w := ws.Get()
	defer ws.Put(w)
	sepTris, err := SeparatingTrianglesCtx(ctx, pool, g)
	if err != nil {
		return nil, err
	}
	inSep := make(map[[3]int32]bool, len(sepTris))
	for _, tr := range sepTris {
		inSep[tr] = true
	}
	all := make([]int32, g.N)
	for i := range all {
		all[i] = int32(i)
	}
	type bubble struct {
		verts []int32
		tris  [][3]int32 // separating triangles of g contained in this bubble
	}
	var bubbles []bubble
	// split recursively decomposes the induced subgraph on verts, bailing out
	// once the context is cancelled.
	var splitErr error
	var split func(verts []int32)
	split = func(verts []int32) {
		if splitErr != nil {
			return
		}
		if err := ctx.Err(); err != nil {
			splitErr = err
			return
		}
		inPiece := w.Bitset(g.N)
		for _, v := range verts {
			inPiece.Set(v)
		}
		// Find a separating triangle of g inside this piece that also
		// separates the piece.
		for _, tr := range sepTris {
			if !inPiece.Test(tr[0]) || !inPiece.Test(tr[1]) || !inPiece.Test(tr[2]) {
				continue
			}
			comps := w.Grouping()
			inducedComponentsWithoutInto(g, w, comps, inPiece, verts, tr)
			if comps.NumGroups() < 2 {
				w.PutGrouping(comps)
				continue
			}
			// Materialize the sides before recursing: the grouping and
			// bitset return to the workspace first so the recursion depth
			// doesn't hold one of each per level.
			sides := make([][]int32, comps.NumGroups())
			for k := range sides {
				comp := comps.Group(k)
				side := make([]int32, 0, len(comp)+3)
				side = append(side, comp...)
				side = append(side, tr[0], tr[1], tr[2])
				slices.Sort(side)
				sides[k] = side
			}
			w.PutGrouping(comps)
			w.PutBitset(inPiece)
			for _, side := range sides {
				split(side)
			}
			return
		}
		// No internal separating triangle: this piece is a bubble. Record
		// which global separating triangles it contains (its boundary).
		b := bubble{verts: verts}
		for _, tr := range sepTris {
			if inPiece.Test(tr[0]) && inPiece.Test(tr[1]) && inPiece.Test(tr[2]) {
				b.tris = append(b.tris, tr)
			}
		}
		bubbles = append(bubbles, b)
		w.PutBitset(inPiece)
	}
	split(all)
	if splitErr != nil {
		return nil, splitErr
	}
	// Connect bubbles sharing each separating triangle.
	byTri := make(map[[3]int32][]int32)
	for i, b := range bubbles {
		for _, tr := range b.tris {
			byTri[tr] = append(byTri[tr], int32(i))
		}
	}
	type edge struct {
		a, b int32
		tri  [3]int32
	}
	var edges []edge
	for _, tr := range sepTris {
		owners := byTri[tr]
		if len(owners) != 2 {
			return nil, fmt.Errorf("bubbletree: separating triangle %v contained in %d bubbles, want 2", tr, len(owners))
		}
		edges = append(edges, edge{a: owners[0], b: owners[1], tri: tr})
	}
	// Root at bubble 0 and orient with BFS.
	t := &Tree{Nodes: make([]Node, len(bubbles)), Root: 0}
	for i, b := range bubbles {
		t.Nodes[i] = Node{Vertices: b.verts, Parent: -1, Sep: [3]int32{NoVertex, NoVertex, NoVertex}}
	}
	adj := make([][]edge, len(bubbles))
	for _, e := range edges {
		adj[e.a] = append(adj[e.a], e)
		adj[e.b] = append(adj[e.b], edge{a: e.b, b: e.a, tri: e.tri})
	}
	visited := make([]bool, len(bubbles))
	visited[0] = true
	queue := []int32{0}
	seen := 1
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, e := range adj[x] {
			if visited[e.b] {
				continue
			}
			visited[e.b] = true
			seen++
			t.Nodes[e.b].Parent = x
			t.Nodes[e.b].Sep = e.tri
			t.Nodes[x].Children = append(t.Nodes[x].Children, e.b)
			queue = append(queue, e.b)
		}
	}
	if seen != len(bubbles) {
		return nil, fmt.Errorf("bubbletree: bubble graph disconnected (%d of %d)", seen, len(bubbles))
	}
	return t, nil
}

// inducedComponentsWithoutInto appends the connected components of the
// subgraph induced on verts minus the triangle corners to out. inPiece must
// be the membership bitset of verts; the triangle corners are temporarily
// cleared and restored before returning. Components are found by
// bitset-visited BFS over a flat queue.
func inducedComponentsWithoutInto(g *graph.Graph, w *ws.Workspace, out *ws.Grouping, inPiece *bitset.Set, verts []int32, tr [3]int32) {
	inPiece.Clear(tr[0])
	inPiece.Clear(tr[1])
	inPiece.Clear(tr[2])
	visited := w.Bitset(g.N)
	queue := w.Int32(len(verts))
	for _, s := range verts {
		if !inPiece.Test(s) || visited.Test(s) {
			continue
		}
		visited.Set(s)
		queue[0] = s
		qh, qt := 0, 1
		for qh < qt {
			v := queue[qh]
			qh++
			out.Append(v)
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if inPiece.Test(u) && !visited.TestAndSet(u) {
					queue[qt] = u
					qt++
				}
			}
		}
		out.EndGroup()
	}
	w.PutInt32(queue)
	w.PutBitset(visited)
	inPiece.Set(tr[0])
	inPiece.Set(tr[1])
	inPiece.Set(tr[2])
}
