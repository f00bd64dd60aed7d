package planarity

import (
	"math/bits"
	"math/rand"
	"testing"
)

// minorSearch decides whether a graph on at most 8 vertices has a target
// graph as a minor, by brute force over vertex-set partitions: assign each
// vertex to one of the target's branch sets (or none), require each branch
// set to induce a connected subgraph, and require an edge between every pair
// of branch sets that are adjacent in the target. Adjacency and branch sets
// are vertex bitmasks, so the exponential enumeration allocates nothing —
// still only for tiny n.
type minorSearch struct {
	n      int
	adj    [8]uint8 // adj[v]: neighbours of v
	k      int      // target vertices = branch sets
	target [8]uint8 // target[a]: branch sets that branch set a must touch
	branch [8]uint8 // branch[a]: vertices assigned to branch set a
}

// found enumerates every assignment of vertices v.. (vertex v unused first,
// then in each branch set) and reports whether one is a minor model.
func (m *minorSearch) found(v int) bool {
	if v == m.n {
		return m.check()
	}
	if m.found(v + 1) {
		return true
	}
	bit := uint8(1) << v
	for a := 0; a < m.k; a++ {
		m.branch[a] |= bit
		ok := m.found(v + 1)
		m.branch[a] &^= bit
		if ok {
			return true
		}
	}
	return false
}

// check reports whether the current assignment is a minor model: every
// branch set non-empty and connected, and every target edge realized.
func (m *minorSearch) check() bool {
	var touch [8]uint8 // touch[a]: vertices adjacent to branch set a
	for a := 0; a < m.k; a++ {
		set := m.branch[a]
		if set == 0 {
			return false
		}
		for x := set; x != 0; x &= x - 1 {
			touch[a] |= m.adj[bits.TrailingZeros8(x)]
		}
		// Grow the component of the lowest member inside set.
		reach := set & -set
		for {
			next := reach
			for x := reach; x != 0; x &= x - 1 {
				next |= m.adj[bits.TrailingZeros8(x)] & set
			}
			if next == reach {
				break
			}
			reach = next
		}
		if reach != set {
			return false
		}
	}
	for a := 0; a < m.k; a++ {
		for b := a + 1; b < m.k; b++ {
			if m.target[a]&(1<<b) != 0 && touch[a]&m.branch[b] == 0 {
				return false
			}
		}
	}
	return true
}

// hasMinor reports whether the graph (adjacency masks on n vertices) has the
// k-vertex target graph as a minor.
func hasMinor(n int, adj [8]uint8, k int, targetEdge func(a, b int) bool) bool {
	m := minorSearch{n: n, adj: adj, k: k}
	for a := 0; a < k; a++ {
		for b := 0; b < k; b++ {
			if a != b && targetEdge(a, b) {
				m.target[a] |= 1 << b
			}
		}
	}
	return m.found(0)
}

// kuratowskiFree reports whether the graph has neither a K5 nor a K3,3
// minor — by Wagner's theorem, exactly the planar graphs.
func kuratowskiFree(n int, edges [][2]int32) bool {
	var adj [8]uint8
	for _, e := range edges {
		adj[e[0]] |= 1 << e[1]
		adj[e[1]] |= 1 << e[0]
	}
	k5 := func(a, b int) bool { return true }
	k33 := func(a, b int) bool { return (a < 3) != (b < 3) }
	if hasMinor(n, adj, 5, k5) {
		return false
	}
	if hasMinor(n, adj, 6, k33) {
		return false
	}
	return true
}

// TestPlanarMatchesWagnerTheorem cross-checks the LR test against
// brute-force forbidden-minor detection on every random graph of up to 7
// vertices we can afford.
func TestPlanarMatchesWagnerTheorem(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 120; trial++ {
		n := 5 + rng.Intn(3) // 5..7
		var edges [][2]int32
		p := 0.3 + rng.Float64()*0.55
		for i := int32(0); int(i) < n; i++ {
			for j := i + 1; int(j) < n; j++ {
				if rng.Float64() < p {
					edges = append(edges, [2]int32{i, j})
				}
			}
		}
		got := Planar(n, edges)
		want := kuratowskiFree(n, edges)
		if got != want {
			t.Fatalf("n=%d edges=%v: Planar=%v, Wagner=%v", n, edges, got, want)
		}
	}
}
