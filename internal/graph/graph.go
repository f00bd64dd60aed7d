// Package graph provides the weighted undirected graph representation and
// shortest-path machinery used by filtered-graph clustering: Dijkstra
// single-source shortest paths, parallel all-pairs shortest paths by
// eight-source relaxation sweeps, triangle enumeration, and connectivity
// queries.
//
// All hot paths run on flat memory: the graph itself is CSR, visited sets
// are dense bitsets, and component enumeration produces flat CSR-offset
// groupings (ws.Grouping) instead of ragged [][]int32. Every function that
// takes a ws.Workspace draws its scratch (and, where documented, its result
// buffers) from it, so repeated same-shape calls allocate nothing at steady
// state; a nil workspace allocates.
package graph

import (
	"cmp"
	"fmt"
	"slices"

	"pfg/internal/ws"
)

// Graph is an undirected weighted graph in compressed adjacency form. Each
// undirected edge {u, v} appears in both adjacency lists; the two arcs may
// carry different weights (see WithWeights).
type Graph struct {
	N int
	// CSR layout: neighbors of v are Adj[Off[v]:Off[v+1]].
	Off    []int32
	Adj    []int32
	Weight []float64
}

// Edge is an undirected weighted edge.
type Edge struct {
	U, V int32
	W    float64
}

// CompareEdges is the canonical order of lo < hi vertex pairs: by low
// endpoint, then by high endpoint. Every wire edge list (result JSON,
// deltas, structure drift) is sorted by it.
func CompareEdges(a, b [2]int32) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// CanonicalEdges returns a copy of an undirected edge list with every pair
// ordered lo < hi and the pairs sorted by CompareEdges. Nil in, nil out.
func CanonicalEdges(edges [][2]int32) [][2]int32 {
	if edges == nil {
		return nil
	}
	out := make([][2]int32, len(edges))
	for i, e := range edges {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		out[i] = e
	}
	slices.SortFunc(out, CompareEdges)
	return out
}

// FromEdgesWS builds a Graph on n vertices from an undirected edge list,
// drawing both its scratch and the graph's CSR arrays from w (nil
// allocates). Duplicate and self edges are rejected. The arrays remain owned
// by the returned graph; call Release to hand them back once the graph is no
// longer needed.
func FromEdgesWS(w *ws.Workspace, n int, edges []Edge) (*Graph, error) {
	deg := w.Int32(n)
	clear(deg)
	for _, e := range edges {
		if e.U == e.V {
			w.PutInt32(deg)
			return nil, fmt.Errorf("graph: self loop at %d", e.U)
		}
		if e.U < 0 || int(e.U) >= n || e.V < 0 || int(e.V) >= n {
			w.PutInt32(deg)
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		deg[e.U]++
		deg[e.V]++
	}
	g := &Graph{
		N:      n,
		Off:    w.Int32(n + 1),
		Adj:    w.Int32(2 * len(edges)),
		Weight: w.Float64(2 * len(edges)),
	}
	g.Off[0] = 0
	for v := 0; v < n; v++ {
		g.Off[v+1] = g.Off[v] + deg[v]
	}
	pos := deg // reuse the degree buffer as the per-vertex write cursor
	copy(pos, g.Off[:n])
	for _, e := range edges {
		g.Adj[pos[e.U]] = e.V
		g.Weight[pos[e.U]] = e.W
		pos[e.U]++
		g.Adj[pos[e.V]] = e.U
		g.Weight[pos[e.V]] = e.W
		pos[e.V]++
	}
	w.PutInt32(deg)
	// Sort each adjacency list for deterministic iteration and O(log d)
	// membership tests. Insertion sort runs in place — no per-vertex
	// allocations, and filtered-graph degrees are small on average.
	for v := 0; v < n; v++ {
		lo, hi := g.Off[v], g.Off[v+1]
		adj, wts := g.Adj[lo:hi], g.Weight[lo:hi]
		for i := 1; i < len(adj); i++ {
			a, x := adj[i], wts[i]
			j := i
			for ; j > 0 && adj[j-1] > a; j-- {
				adj[j], wts[j] = adj[j-1], wts[j-1]
			}
			adj[j], wts[j] = a, x
		}
		for i := 1; i < len(adj); i++ {
			if adj[i] == adj[i-1] {
				g.Release(w)
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", v, adj[i])
			}
		}
	}
	return g, nil
}

// Release returns the graph's CSR arrays to the workspace. The graph must
// not be used afterwards. Only call this on graphs built with FromEdgesWS
// whose arrays are not shared (see WithWeights).
func (g *Graph) Release(w *ws.Workspace) {
	w.PutInt32(g.Off)
	w.PutInt32(g.Adj)
	w.PutFloat64(g.Weight)
	g.Off, g.Adj, g.Weight = nil, nil, nil
}

// WithWeights returns a graph sharing this graph's topology (Off and Adj
// alias g's arrays) with edge weights looked up per adjacency slot from
// weightOf. The weight array is drawn from the workspace; release it with
// ReleaseWeights when done. This is the cheap way to re-weight a filtered
// graph (e.g. similarity → dissimilarity) without re-sorting adjacency.
func (g *Graph) WithWeights(w *ws.Workspace, weightOf func(u, v int32) float64) *Graph {
	ng := &Graph{N: g.N, Off: g.Off, Adj: g.Adj, Weight: w.Float64(len(g.Adj))}
	for v := int32(0); int(v) < g.N; v++ {
		for k := g.Off[v]; k < g.Off[v+1]; k++ {
			ng.Weight[k] = weightOf(v, g.Adj[k])
		}
	}
	return ng
}

// ReleaseWeights returns only the weight array to the workspace, for graphs
// created with WithWeights whose topology is shared.
func (g *Graph) ReleaseWeights(w *ws.Workspace) {
	w.PutFloat64(g.Weight)
	g.Off, g.Adj, g.Weight = nil, nil, nil
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.Adj) / 2 }

// Neighbors returns v's adjacency and weight slices (views; do not modify).
func (g *Graph) Neighbors(v int32) ([]int32, []float64) {
	lo, hi := g.Off[v], g.Off[v+1]
	return g.Adj[lo:hi], g.Weight[lo:hi]
}

// EdgeWeight returns the weight of edge {u, v} and whether it exists.
func (g *Graph) EdgeWeight(u, v int32) (float64, bool) {
	if k := g.slot(u, v); k >= 0 {
		return g.Weight[k], true
	}
	return 0, false
}

// slot returns the CSR index of v in u's adjacency, or -1 if {u, v} is not
// an edge. Manual binary search on the sorted segment: sort.Search's closure
// costs show up in the DBHT attachment loops.
func (g *Graph) slot(u, v int32) int {
	lo, hi := int(g.Off[u]), int(g.Off[u+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if g.Adj[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(g.Off[u+1]) && g.Adj[lo] == v {
		return lo
	}
	return -1
}

// WeightedDegree returns the sum of edge weights incident to v.
func (g *Graph) WeightedDegree(v int32) float64 {
	_, wts := g.Neighbors(v)
	s := 0.0
	for _, w := range wts {
		s += w
	}
	return s
}

// Edges returns the undirected edge list with U < V, sorted.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	for u := int32(0); int(u) < g.N; u++ {
		adj, wts := g.Neighbors(u)
		for i, v := range adj {
			if u < v {
				out = append(out, Edge{U: u, V: v, W: wts[i]})
			}
		}
	}
	return out
}

// Components returns the connected components of the graph as a flat
// CSR-offset grouping, drawing the result from the workspace. Components
// are ordered by smallest contained vertex; members appear in BFS order
// from that vertex. Release the grouping with w.PutGrouping.
func (g *Graph) Components(w *ws.Workspace) *ws.Grouping {
	out := w.Grouping()
	g.ComponentsWithoutInto(w, out, nil)
	return out
}

// ComponentsWithout returns the connected components of the graph after
// removing the given vertices. Removed vertices belong to no component.
// This is the ragged-slice convenience wrapper; hot paths use
// ComponentsWithoutInto.
func (g *Graph) ComponentsWithout(removed []int32) [][]int32 {
	w := ws.Get()
	defer ws.Put(w)
	out := w.Grouping()
	defer w.PutGrouping(out)
	g.ComponentsWithoutInto(w, out, removed)
	comps := make([][]int32, out.NumGroups())
	for k := range comps {
		comps[k] = append([]int32(nil), out.Group(k)...)
	}
	return comps
}

// ComponentsWithoutInto appends the connected components of the graph minus
// the removed vertices to out, one grouping group per component. The
// traversal is a bitset-visited BFS with a flat queue: deterministic
// (components ordered by smallest vertex, members in BFS order) and
// allocation-free once the workspace is warm.
func (g *Graph) ComponentsWithoutInto(w *ws.Workspace, out *ws.Grouping, removed []int32) {
	visited := w.Bitset(g.N)
	for _, v := range removed {
		visited.Set(v)
	}
	queue := w.Int32(g.N)
	for s := int32(0); int(s) < g.N; s++ {
		if visited.Test(s) {
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
				if !visited.TestAndSet(u) {
					queue[qt] = u
					qt++
				}
			}
		}
		out.EndGroup()
	}
	w.PutInt32(queue)
	w.PutBitset(visited)
}

// NumComponentsWithout counts the connected components of the graph minus
// the removed vertices without materializing members — the cheap form of
// ComponentsWithoutInto for separation tests.
func (g *Graph) NumComponentsWithout(w *ws.Workspace, removed []int32) int {
	visited := w.Bitset(g.N)
	for _, v := range removed {
		visited.Set(v)
	}
	queue := w.Int32(g.N)
	comps := 0
	for s := int32(0); int(s) < g.N; s++ {
		if visited.Test(s) {
			continue
		}
		comps++
		visited.Set(s)
		queue[0] = s
		qh, qt := 0, 1
		for qh < qt {
			v := queue[qh]
			qh++
			adj, _ := g.Neighbors(v)
			for _, u := range adj {
				if !visited.TestAndSet(u) {
					queue[qt] = u
					qt++
				}
			}
		}
	}
	w.PutInt32(queue)
	w.PutBitset(visited)
	return comps
}

// Triangles enumerates every triangle {a < b < c} in the graph. On planar
// graphs this is O(n^{3/2})-ish in practice via the ordered intersection of
// adjacency lists.
func (g *Graph) Triangles() [][3]int32 {
	var out [][3]int32
	for u := int32(0); int(u) < g.N; u++ {
		adjU, _ := g.Neighbors(u)
		for _, v := range adjU {
			if v <= u {
				continue
			}
			// Intersect neighbor lists of u and v, keeping w > v.
			adjV, _ := g.Neighbors(v)
			i, j := 0, 0
			for i < len(adjU) && j < len(adjV) {
				a, b := adjU[i], adjV[j]
				switch {
				case a == b:
					if a > v {
						out = append(out, [3]int32{u, v, a})
					}
					i++
					j++
				case a < b:
					i++
				default:
					j++
				}
			}
		}
	}
	return out
}
