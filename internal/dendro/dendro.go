// Package dendro provides the dendrogram type produced by all hierarchical
// clustering algorithms in this module, along with cutting and validation.
//
// Nodes are numbered scipy-style: leaves are 0..n-1 and the i-th merge
// creates internal node n+i. A dendrogram over n leaves has exactly n-1
// merges; the last merge is the root.
package dendro

import (
	"fmt"
	"sort"
)

// Merge records one agglomeration step: nodes A and B (leaf or internal ids)
// joined at the given height.
type Merge struct {
	A, B   int32
	Height float64
}

// Dendrogram is a full binary merge tree over N leaves.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Root returns the id of the root node (n-2+n for n ≥ 2, 0 for n = 1).
func (d *Dendrogram) Root() int32 {
	if d.N == 1 {
		return 0
	}
	return int32(d.N + len(d.Merges) - 1)
}

// Validate checks structural soundness: n-1 merges, every node used as a
// child at most once, children created before parents, and monotone heights
// (child height ≤ parent height, with tolerance tol for rounding).
func (d *Dendrogram) Validate(tol float64) error {
	if d.N < 1 {
		return fmt.Errorf("dendro: empty dendrogram")
	}
	if len(d.Merges) != d.N-1 {
		return fmt.Errorf("dendro: %d merges for %d leaves, want %d", len(d.Merges), d.N, d.N-1)
	}
	used := make([]bool, d.N+len(d.Merges))
	for i, m := range d.Merges {
		self := int32(d.N + i)
		for _, c := range []int32{m.A, m.B} {
			if c < 0 || c >= self {
				return fmt.Errorf("dendro: merge %d references node %d (self=%d)", i, c, self)
			}
			if used[c] {
				return fmt.Errorf("dendro: node %d used as child twice", c)
			}
			used[c] = true
			if c >= int32(d.N) {
				child := d.Merges[c-int32(d.N)]
				if child.Height > m.Height+tol {
					return fmt.Errorf("dendro: non-monotone heights: node %d (%.6g) above parent %d (%.6g)",
						c, child.Height, self, m.Height)
				}
			}
		}
	}
	for node := 0; node < d.N+len(d.Merges)-1; node++ {
		if !used[node] && d.N > 1 {
			return fmt.Errorf("dendro: node %d never merged", node)
		}
	}
	return nil
}

// Cut returns cluster labels in [0, k) for each leaf, cutting the dendrogram
// into exactly k clusters. The k-1 highest merges are undone; ties are
// broken by undoing later merges first, which is always consistent because
// parents are created after children. Labels are assigned in order of each
// cluster's smallest leaf id.
func (d *Dendrogram) Cut(k int) ([]int, error) {
	if k < 1 || k > d.N {
		return nil, fmt.Errorf("dendro: cannot cut %d leaves into %d clusters", d.N, k)
	}
	cut := make([]bool, len(d.Merges))
	order := make([]int, len(d.Merges))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		if d.Merges[order[a]].Height != d.Merges[order[b]].Height {
			return d.Merges[order[a]].Height > d.Merges[order[b]].Height
		}
		return order[a] > order[b]
	})
	for i := 0; i < k-1; i++ {
		cut[order[i]] = true
	}
	// Union-find over leaves, applying kept merges.
	parent := make([]int32, d.N+len(d.Merges))
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, m := range d.Merges {
		self := int32(d.N + i)
		if cut[i] {
			continue
		}
		parent[find(m.A)] = self
		parent[find(m.B)] = self
	}
	// Map components to labels by smallest leaf id.
	rep := map[int32]int32{} // root node -> smallest leaf
	for leaf := int32(0); int(leaf) < d.N; leaf++ {
		r := find(leaf)
		if _, ok := rep[r]; !ok {
			rep[r] = leaf
		}
	}
	reps := make([]int32, 0, len(rep))
	for _, leaf := range rep {
		reps = append(reps, leaf)
	}
	sort.Slice(reps, func(a, b int) bool { return reps[a] < reps[b] })
	labelOf := make(map[int32]int, len(reps))
	for i, leaf := range reps {
		labelOf[leaf] = i
	}
	out := make([]int, d.N)
	for leaf := int32(0); int(leaf) < d.N; leaf++ {
		out[leaf] = labelOf[rep[find(leaf)]]
	}
	if len(reps) != k {
		return nil, fmt.Errorf("dendro: cut produced %d clusters, want %d", len(reps), k)
	}
	return out, nil
}
