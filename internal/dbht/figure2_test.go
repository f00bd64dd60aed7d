package dbht

import (
	"context"
	"sort"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/matrix"
	"pfg/internal/tmfg"
)

// figure2Matrix is crafted so that TMFG construction with prefix 1 follows
// Example 1 of the paper: start from the 4-clique {0,1,2,4}, insert 3 into
// {0,1,2}, then 5 into {1,2,3}, then 6 into {0,1,3} — yielding the Figure 2
// graph and bubble tree.
func figure2Matrix() *matrix.Sym {
	s := matrix.NewSym(7)
	for i := 0; i < 7; i++ {
		s.Set(i, i, 1)
		for j := i + 1; j < 7; j++ {
			s.Set(i, j, 0.05)
		}
	}
	// Initial clique {0,1,2,4}.
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 2}, {0, 4}, {1, 4}, {2, 4}} {
		s.Set(e[0], e[1], 0.9)
	}
	// Vertex 3 prefers face {0,1,2}.
	s.Set(3, 0, 0.6)
	s.Set(3, 1, 0.6)
	s.Set(3, 2, 0.6)
	// Vertex 5 prefers face {1,2,3}.
	s.Set(5, 1, 0.55)
	s.Set(5, 2, 0.55)
	s.Set(5, 3, 0.5)
	// Vertex 6 prefers face {0,1,3}.
	s.Set(6, 0, 0.5)
	s.Set(6, 1, 0.5)
	s.Set(6, 3, 0.45)
	return s
}

func TestFigure2BubbleTree(t *testing.T) {
	s := figure2Matrix()
	r, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Edge set of Figure 2(a).
	want := map[[2]int32]bool{}
	for _, e := range [][2]int32{
		{0, 1}, {0, 2}, {1, 2}, {0, 4}, {1, 4}, {2, 4}, // clique
		{0, 3}, {1, 3}, {2, 3}, // insert 3
		{1, 5}, {2, 5}, {3, 5}, // insert 5
		{0, 6}, {1, 6}, {3, 6}, // insert 6
	} {
		want[e] = true
	}
	for _, e := range r.Edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		if !want[[2]int32{u, v}] {
			t.Fatalf("unexpected TMFG edge (%d,%d); graph diverges from Figure 2(a)", u, v)
		}
	}
	// Bubbles of Figure 2(b): b1..b4.
	wantBubbles := map[[4]int32]string{
		{0, 1, 2, 4}: "b1",
		{0, 1, 2, 3}: "b2",
		{0, 1, 3, 6}: "b3",
		{1, 2, 3, 5}: "b4",
	}
	if r.Tree.NumNodes() != 4 {
		t.Fatalf("bubble tree has %d nodes, want 4", r.Tree.NumNodes())
	}
	nameOf := map[int32]string{}
	for i, nd := range r.Tree.Nodes {
		var k [4]int32
		copy(k[:], nd.Vertices)
		name, ok := wantBubbles[k]
		if !ok {
			t.Fatalf("unexpected bubble %v", nd.Vertices)
		}
		nameOf[int32(i)] = name
	}
	// Undirected adjacency of Figure 2(b): b2—b1, b2—b3, b2—b4 (the
	// rooting depends on the arbitrary outer-face choice; the topology
	// must not).
	adj := map[string][]string{}
	for i, nd := range r.Tree.Nodes {
		if int32(i) == r.Tree.Root {
			continue
		}
		a, b := nameOf[int32(i)], nameOf[nd.Parent]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	if len(adj["b2"]) != 3 {
		t.Fatalf("b2 should be adjacent to all other bubbles, got %v", adj["b2"])
	}
	for _, other := range []string{"b1", "b3", "b4"} {
		if len(adj[other]) != 1 || adj[other][0] != "b2" {
			t.Fatalf("%s should only touch b2, got %v", other, adj[other])
		}
	}
	// Separating triangles label the edges: t1={0,1,2}, t2={0,1,3},
	// t4={1,2,3}.
	wantSep := map[[3]int32]bool{{0, 1, 2}: true, {0, 1, 3}: true, {1, 2, 3}: true}
	for i, nd := range r.Tree.Nodes {
		if int32(i) == r.Tree.Root {
			continue
		}
		sep := nd.Sep
		sort.Slice(sep[:], func(a, b int) bool { return sep[a] < sep[b] })
		if !wantSep[sep] {
			t.Fatalf("unexpected separating triangle %v", sep)
		}
	}
}

func TestFigure2DBHTEndToEnd(t *testing.T) {
	s := figure2Matrix()
	r, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := build(r.Graph, r.Tree, dissimilarity(s), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Dendrogram.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	// Every vertex's bubble assignment contains it; every group is
	// converging (generic sanity on the worked example).
	isConv := map[int32]bool{}
	for _, c := range res.Directed.Converging {
		isConv[c] = true
	}
	for v := 0; v < 7; v++ {
		if !isConv[res.Group[v]] {
			t.Fatalf("vertex %d grouped into non-converging bubble", v)
		}
	}
	// The 7 leaves must cut into any k cleanly.
	for k := 1; k <= 7; k++ {
		labels, err := res.Dendrogram.Cut(k)
		if err != nil {
			t.Fatalf("cut %d: %v", k, err)
		}
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		if len(distinct) != k {
			t.Fatalf("cut %d gave %d clusters", k, len(distinct))
		}
	}
}
