package bubbletree

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/graph"
)

// stackedTMFG builds a random Apollonian (TMFG-shaped) graph plus its bubble
// tree ground truth by direct simulation, independent of package tmfg.
func stackedTMFG(rng *rand.Rand, n int) (*graph.Graph, *Tree) {
	type faceRec struct {
		v      [3]int32
		bubble int32
	}
	var edges []graph.Edge
	w := func() float64 { return rng.Float64() + 0.05 }
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: w()})
		}
	}
	tree := &Tree{
		Nodes: []Node{{
			Vertices: []int32{0, 1, 2, 3},
			Parent:   -1,
			Sep:      [3]int32{NoVertex, NoVertex, NoVertex},
		}},
		Root: 0,
	}
	faces := []faceRec{
		{v: [3]int32{0, 1, 2}, bubble: 0},
		{v: [3]int32{0, 1, 3}, bubble: 0},
		{v: [3]int32{0, 2, 3}, bubble: 0},
		{v: [3]int32{1, 2, 3}, bubble: 0},
	}
	outer := 0
	for v := int32(4); int(v) < n; v++ {
		fi := rng.Intn(len(faces))
		f := faces[fi]
		for _, c := range f.v {
			edges = append(edges, graph.Edge{U: v, V: c, W: w()})
		}
		nb := int32(len(tree.Nodes))
		node := Node{
			Vertices: []int32{f.v[0], f.v[1], f.v[2], v},
			Sep:      f.v,
			Parent:   f.bubble,
		}
		sortInts(node.Vertices)
		if fi == outer {
			node.Sep = [3]int32{NoVertex, NoVertex, NoVertex}
			node.Parent = -1
			oldRoot := tree.Root
			tree.Nodes = append(tree.Nodes, node)
			tree.Nodes[oldRoot].Parent = nb
			tree.Nodes[oldRoot].Sep = f.v
			tree.Nodes[nb].Children = append(tree.Nodes[nb].Children, oldRoot)
			tree.Root = nb
		} else {
			tree.Nodes = append(tree.Nodes, node)
			tree.Nodes[f.bubble].Children = append(tree.Nodes[f.bubble].Children, nb)
		}
		faces[fi] = faceRec{v: [3]int32{v, f.v[0], f.v[1]}, bubble: nb}
		if fi == outer {
			outer = fi
		}
		faces = append(faces,
			faceRec{v: [3]int32{v, f.v[1], f.v[2]}, bubble: nb},
			faceRec{v: [3]int32{v, f.v[0], f.v[2]}, bubble: nb},
		)
	}
	g, err := graph.FromEdgesWS(nil, n, edges)
	if err != nil {
		panic(err)
	}
	return g, tree
}

func sortInts(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestValidateAcceptsGoodTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	_, tree := stackedTMFG(rng, 30)
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadTrees(t *testing.T) {
	if err := (&Tree{}).Validate(); err == nil {
		t.Fatal("empty tree must fail")
	}
	// Root with a parent.
	bad := &Tree{Nodes: []Node{{Parent: 0}}, Root: 0}
	if err := bad.Validate(); err == nil {
		t.Fatal("root with parent must fail")
	}
	// Inconsistent child pointer.
	bad2 := &Tree{
		Nodes: []Node{
			{Parent: -1, Children: []int32{1}, Vertices: []int32{0, 1, 2, 3}},
			{Parent: 0, Vertices: []int32{1, 2, 3, 4}, Sep: [3]int32{9, 2, 3}},
		},
		Root: 0,
	}
	if err := bad2.Validate(); err == nil {
		t.Fatal("sep vertex outside bubble must fail")
	}
}

func TestSeparatingTrianglesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, tree := stackedTMFG(rng, 20)
	sep, err := SeparatingTrianglesCtx(context.Background(), exec.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	// A TMFG on n vertices has n-4 separating triangles (one per tree edge).
	if len(sep) != g.N-4 {
		t.Fatalf("got %d separating triangles, want %d", len(sep), g.N-4)
	}
	want := map[[3]int32]bool{}
	for i, nd := range tree.Nodes {
		if int32(i) == tree.Root {
			continue
		}
		s := nd.Sep
		sortInts(s[:])
		want[s] = true
	}
	for _, tr := range sep {
		if !want[tr] {
			t.Fatalf("unexpected separating triangle %v", tr)
		}
	}
}

func TestBuildGenericMatchesSimulatedTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(25)
		g, tree := stackedTMFG(rng, n)
		gen, err := BuildGenericCtx(context.Background(), exec.Default(), g)
		if err != nil {
			t.Fatal(err)
		}
		if gen.NumNodes() != tree.NumNodes() {
			t.Fatalf("n=%d: %d generic bubbles, want %d", n, gen.NumNodes(), tree.NumNodes())
		}
		if err := gen.Validate(); err != nil {
			t.Fatal(err)
		}
		want := map[[4]int32]bool{}
		for _, nd := range tree.Nodes {
			var k [4]int32
			copy(k[:], nd.Vertices)
			want[k] = true
		}
		for _, nd := range gen.Nodes {
			var k [4]int32
			copy(k[:], nd.Vertices)
			if !want[k] {
				t.Fatalf("generic bubble %v unknown", nd.Vertices)
			}
		}
	}
}

func TestBuildGenericSingleBubble(t *testing.T) {
	// K4 and the octahedron have no separating triangles: one bubble.
	var edges []graph.Edge
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, graph.Edge{U: i, V: j, W: 1})
		}
	}
	g, err := graph.FromEdgesWS(nil, 4, edges)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildGenericCtx(context.Background(), exec.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumNodes() != 1 || len(tree.Nodes[0].Vertices) != 4 {
		t.Fatalf("K4 should be a single bubble, got %d nodes", tree.NumNodes())
	}
}

// bruteInterior computes InVal/OutVal for a non-root node by explicit set
// membership, the way the original DBHT implementation does with BFS.
func bruteInterior(tree *Tree, g *graph.Graph, b int32) (inVal, outVal float64) {
	sep := tree.Nodes[b].Sep
	interior := map[int32]bool{}
	for _, v := range subtreeVertices(tree, b) {
		interior[v] = true
	}
	for _, c := range sep {
		delete(interior, c)
	}
	isCorner := func(v int32) bool { return v == sep[0] || v == sep[1] || v == sep[2] }
	for _, c := range sep {
		adj, wts := g.Neighbors(c)
		for i, u := range adj {
			if isCorner(u) {
				continue
			}
			if interior[u] {
				inVal += wts[i]
			} else {
				outVal += wts[i]
			}
		}
	}
	return inVal, outVal
}

func TestDirectEdgesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		n := 6 + rng.Intn(40)
		g, tree := stackedTMFG(rng, n)
		d := directEdges(t, tree, g)
		for b := int32(0); int(b) < tree.NumNodes(); b++ {
			if b == tree.Root {
				continue
			}
			wantIn, wantOut := bruteInterior(tree, g, b)
			if abs(d.InVal[b]-wantIn) > 1e-9 || abs(d.OutVal[b]-wantOut) > 1e-9 {
				t.Fatalf("n=%d bubble=%d: got (%.6f, %.6f) want (%.6f, %.6f)",
					n, b, d.InVal[b], d.OutVal[b], wantIn, wantOut)
			}
			if d.DirDown[b] != (wantIn > wantOut) {
				t.Fatalf("bubble %d: wrong direction", b)
			}
		}
	}
}

func TestDirectEdgesOnGenericTree(t *testing.T) {
	// The same computation must work on the generic (re-rooted) tree and
	// produce identical per-triangle directions.
	rng := rand.New(rand.NewSource(5))
	g, tree := stackedTMFG(rng, 25)
	gen, err := BuildGenericCtx(context.Background(), exec.Default(), g)
	if err != nil {
		t.Fatal(err)
	}
	dGen := directEdges(t, gen, g)
	for b := int32(0); int(b) < gen.NumNodes(); b++ {
		if b == gen.Root {
			continue
		}
		wantIn, wantOut := bruteInterior(gen, g, b)
		if abs(dGen.InVal[b]-wantIn) > 1e-9 || abs(dGen.OutVal[b]-wantOut) > 1e-9 {
			t.Fatalf("generic bubble %d: got (%.6f,%.6f) want (%.6f,%.6f)",
				b, dGen.InVal[b], dGen.OutVal[b], wantIn, wantOut)
		}
	}
	// Converging bubbles must agree between the two trees as vertex sets.
	dFly := directEdges(t, tree, g)
	convSet := func(d *Directed) map[[4]int32]bool {
		out := map[[4]int32]bool{}
		for _, c := range d.Converging {
			var k [4]int32
			copy(k[:], d.Tree.Nodes[c].Vertices)
			out[k] = true
		}
		return out
	}
	a, bb := convSet(dFly), convSet(dGen)
	if len(a) != len(bb) {
		t.Fatalf("converging bubble counts differ: %d vs %d", len(a), len(bb))
	}
	for k := range a {
		if !bb[k] {
			t.Fatalf("converging bubble %v missing in generic tree", k)
		}
	}
}

func TestOutDegreesAndConverging(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g, tree := stackedTMFG(rng, 30)
	d := directEdges(t, tree, g)
	// Sum of out-degrees equals the number of tree edges.
	var total int32
	for _, od := range d.OutDeg {
		total += od
	}
	if int(total) != tree.NumNodes()-1 {
		t.Fatalf("out-degree sum %d, want %d", total, tree.NumNodes()-1)
	}
	if len(d.Converging) == 0 {
		t.Fatal("at least one converging bubble must exist")
	}
	for _, c := range d.Converging {
		if d.OutDeg[c] != 0 {
			t.Fatalf("converging bubble %d has out-degree %d", c, d.OutDeg[c])
		}
	}
}

func TestReachableConverging(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, tree := stackedTMFG(rng, 30)
	d := directEdges(t, tree, g)
	reach, err := d.ReachableConvergingWS(context.Background(), exec.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every bubble reaches at least one converging bubble (directed paths in
	// a finite tree end at out-degree-0 nodes).
	for b := 0; b < reach.NumGroups(); b++ {
		if len(reach.Group(b)) == 0 {
			t.Fatalf("bubble %d reaches no converging bubble", b)
		}
	}
	// A converging bubble reaches exactly itself... plus anything reachable
	// through its (nonexistent) out-edges: so exactly itself.
	for _, c := range d.Converging {
		if r := reach.Group(int(c)); len(r) != 1 || r[0] != c {
			t.Fatalf("converging bubble %d should reach only itself, got %v", c, r)
		}
	}
	// outNeighbors: the parent when the edge to it points up, and every
	// child whose edge points down.
	outNeighbors := func(x int32) []int32 {
		var out []int32
		if p := tree.Nodes[x].Parent; p >= 0 && !d.DirDown[x] {
			out = append(out, p)
		}
		for _, c := range tree.Nodes[x].Children {
			if d.DirDown[c] {
				out = append(out, c)
			}
		}
		return out
	}
	// Brute-force transitive closure cross-check.
	for b := int32(0); int(b) < tree.NumNodes(); b++ {
		want := map[int32]bool{}
		var dfs func(x int32)
		seen := map[int32]bool{}
		dfs = func(x int32) {
			if seen[x] {
				return
			}
			seen[x] = true
			if d.OutDeg[x] == 0 {
				want[x] = true
			}
			for _, y := range outNeighbors(x) {
				dfs(y)
			}
		}
		dfs(b)
		r := reach.Group(int(b))
		if len(want) != len(r) {
			t.Fatalf("bubble %d: reach size %d want %d", b, len(r), len(want))
		}
		for _, x := range r {
			if !want[x] {
				t.Fatalf("bubble %d: unexpected reach %d", b, x)
			}
		}
	}
}

// subtreeVertices returns the sorted graph vertices of the subtree rooted at
// b, b included: the interior bruteInterior tests against.
func subtreeVertices(tree *Tree, b int32) []int32 {
	var out []int32
	var rec func(x int32)
	rec = func(x int32) {
		out = append(out, tree.Nodes[x].Vertices...)
		for _, c := range tree.Nodes[x].Children {
			rec(c)
		}
	}
	rec(b)
	slices.Sort(out)
	return slices.Compact(out)
}

// TestSubtreeVertices checks the oracle's subtree walk: the root's subtree
// holds every vertex once, in order.
func TestSubtreeVertices(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	_, tree := stackedTMFG(rng, 15)
	all := subtreeVertices(tree, tree.Root)
	if len(all) != 15 {
		t.Fatalf("root subtree has %d vertices, want 15", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1] >= all[i] {
			t.Fatal("subtree vertices must be sorted and unique")
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// directEdges runs DirectEdgesCtx on the default pool.
func directEdges(t *testing.T, tree *Tree, g *graph.Graph) *Directed {
	t.Helper()
	d, err := DirectEdgesCtx(context.Background(), exec.Default(), tree, g)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
