package dbht

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/bubbletree"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/matrix"
	"pfg/internal/tmfg"
)

// build runs BuildWS on the default pool without a workspace.
func build(g *graph.Graph, tree *bubbletree.Tree, dis *matrix.Sym, opts Options) (*Result, error) {
	return BuildWS(context.Background(), exec.Default(), nil, g, tree, dis, opts)
}

// dissimilarity converts s on the default pool without a workspace.
func dissimilarity(s *matrix.Sym) *matrix.Sym {
	d, _ := matrix.DissimilarityWS(context.Background(), exec.Default(), nil, s)
	return d
}

// appendixMatrix is the 6×6 correlation matrix from Figure 12 of the paper;
// ground truth clusters are {0,1,2} and {3,4,5}.
func appendixMatrix() *matrix.Sym {
	rows := [][]float64{
		{1, 0.8, 0.4, 0.8, 0.8, 0.4},
		{0.8, 1, 0.41, 0.9, 0.4, 0},
		{0.8, 0.41, 1, 0, 0.4, 0.42},
		{0.8, 0.9, 0, 1, 0.8, 0.8},
		{0.8, 0.4, 0.4, 0.8, 1, 0.8},
		{0.4, 0, 0.42, 0.8, 0.8, 1},
	}
	// Fix row 2 to match Figure 12 exactly (symmetric with row 0 col 2 = 0.4).
	rows[2][0] = 0.4
	rows[0][2] = 0.4
	s := matrix.NewSym(6)
	for i := range rows {
		for j := range rows[i] {
			s.Data[i*6+j] = rows[i][j]
		}
	}
	return s
}

func randomSym(rng *rand.Rand, n int) *matrix.Sym {
	s := matrix.NewSym(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			s.Set(i, j, rng.Float64())
		}
	}
	return s
}

func runPipeline(t *testing.T, s *matrix.Sym, prefix int) (*tmfg.Result, *Result) {
	t.Helper()
	tr, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, prefix)
	if err != nil {
		t.Fatal(err)
	}
	dis := dissimilarity(s)
	res, err := build(tr.Graph, tr.Tree, dis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	fa := map[int]int{}
	fb := map[int]int{}
	for i := range a {
		if v, ok := fa[a[i]]; ok && v != b[i] {
			return false
		}
		if v, ok := fb[b[i]]; ok && v != a[i] {
			return false
		}
		fa[a[i]] = b[i]
		fb[b[i]] = a[i]
	}
	return true
}

func TestAppendixPrefix3RecoversGroundTruth(t *testing.T) {
	// Figure 13(h): PREFIX=3 yields a dendrogram whose 2-cut recovers
	// {0,1,2} and {3,4,5}.
	s := appendixMatrix()
	_, res := runPipeline(t, s, 3)
	labels, err := res.Dendrogram.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if !samePartition(labels, want) {
		t.Fatalf("prefix=3 cut(2) = %v, want partition %v", labels, want)
	}
}

func TestAppendixPrefix1CannotRecoverGroundTruth(t *testing.T) {
	// Figure 13(d): with PREFIX=1, vertex 2 attaches to {0,4,5}, so the
	// 2-cut cannot equal the ground truth.
	s := appendixMatrix()
	_, res := runPipeline(t, s, 1)
	labels, err := res.Dendrogram.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 0, 0, 1, 1, 1}
	if samePartition(labels, want) {
		t.Fatalf("prefix=1 cut(2) = %v unexpectedly recovers ground truth", labels)
	}
}

func TestDendrogramValidityAcrossSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{4, 5, 6, 10, 30, 100} {
		for _, prefix := range []int{1, 5, 30} {
			s := randomSym(rng, n)
			_, res := runPipeline(t, s, prefix)
			if err := res.Dendrogram.Validate(1e-9); err != nil {
				t.Fatalf("n=%d prefix=%d: %v", n, prefix, err)
			}
			if res.Dendrogram.N != n {
				t.Fatalf("dendrogram has %d leaves, want %d", res.Dendrogram.N, n)
			}
		}
	}
}

func TestAssignmentsWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := randomSym(rng, 60)
	tr, res := runPipeline(t, s, 5)
	isConv := map[int32]bool{}
	for _, c := range res.Directed.Converging {
		isConv[c] = true
	}
	vb := tr.Tree.VertexBubbles(60)
	for v := 0; v < 60; v++ {
		if !isConv[res.Group[v]] {
			t.Fatalf("vertex %d assigned to non-converging bubble %d", v, res.Group[v])
		}
		// Bubble assignment must contain the vertex.
		found := false
		for _, u := range tr.Tree.Nodes[res.Bubble[v]].Vertices {
			if u == int32(v) {
				found = true
			}
		}
		if !found {
			t.Fatalf("vertex %d assigned to bubble %d not containing it", v, res.Bubble[v])
		}
		// If the vertex is in a converging bubble, its group must be one of
		// its own converging bubbles (the χ maximizer).
		var own []int32
		for _, b := range vb[v] {
			if isConv[b] {
				own = append(own, b)
			}
		}
		if len(own) > 0 {
			ok := false
			for _, b := range own {
				if b == res.Group[v] {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("vertex %d in converging bubbles %v but assigned to %d", v, own, res.Group[v])
			}
		}
	}
}

func TestCutAtGroupsEqualsGroupPartition(t *testing.T) {
	// Cutting at k = number of groups removes exactly the inter-group
	// merges (heights ≥ 2 vs ≤ 1 inside groups), so the cut must equal the
	// group assignment partition.
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{20, 50, 120} {
		s := randomSym(rng, n)
		_, res := runPipeline(t, s, 10)
		k := len(res.Groups)
		labels, err := res.Dendrogram.Cut(k)
		if err != nil {
			t.Fatal(err)
		}
		groupLabels := make([]int, n)
		for v := 0; v < n; v++ {
			groupLabels[v] = int(res.Group[v])
		}
		if !samePartition(labels, groupLabels) {
			t.Fatalf("n=%d: cut(%d) does not match group partition", n, k)
		}
	}
}

func TestGenericTreeGivesSameGroups(t *testing.T) {
	// Running DBHT on the generic (original-algorithm) bubble tree must
	// give the same group partition as the on-the-fly TMFG tree, since the
	// directed triangles are identical.
	rng := rand.New(rand.NewSource(4))
	s := randomSym(rng, 40)
	tr, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	dis := dissimilarity(s)
	resFly, err := build(tr.Graph, tr.Tree, dis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	gen, err := bubbletree.BuildGenericCtx(context.Background(), exec.Default(), tr.Graph)
	if err != nil {
		t.Fatal(err)
	}
	resGen, err := build(tr.Graph, gen, dis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := make([]int, 40)
	b := make([]int, 40)
	for v := 0; v < 40; v++ {
		a[v] = int(resFly.Group[v])
		b[v] = int(resGen.Group[v])
	}
	if !samePartition(a, b) {
		t.Fatalf("group partitions differ between tree constructions:\n%v\n%v", a, b)
	}
	if err := resGen.Dendrogram.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
}

func TestInterGroupHeightsAreGroupCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSym(rng, 80)
	_, res := runPipeline(t, s, 10)
	k := len(res.Groups)
	if k < 2 {
		t.Skip("single group; no inter-group merges")
	}
	// The root must have height = number of groups; all heights within
	// groups must be ≤ 1.
	root := res.Dendrogram.Merges[len(res.Dendrogram.Merges)-1]
	if root.Height != float64(k) {
		t.Fatalf("root height %v, want %d", root.Height, k)
	}
	above := 0
	for _, m := range res.Dendrogram.Merges {
		if m.Height > 1 {
			above++
		}
	}
	if above != k-1 {
		t.Fatalf("%d merges above height 1, want %d", above, k-1)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomSym(rng, 50)
	_, res1 := runPipeline(t, s, 10)
	_, res2 := runPipeline(t, s, 10)
	for i := range res1.Dendrogram.Merges {
		if res1.Dendrogram.Merges[i] != res2.Dendrogram.Merges[i] {
			t.Fatalf("merge %d differs: %v vs %v", i, res1.Dendrogram.Merges[i], res2.Dendrogram.Merges[i])
		}
	}
	for v := range res1.Group {
		if res1.Group[v] != res2.Group[v] || res1.Bubble[v] != res2.Bubble[v] {
			t.Fatalf("assignment of %d differs", v)
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := randomSym(rng, 10)
	tr, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := build(tr.Graph, tr.Tree, matrix.NewSym(5), Options{}); err == nil {
		t.Fatal("mismatched dissimilarity size accepted")
	}
}

func TestTimingsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := randomSym(rng, 120)
	_, res := runPipeline(t, s, 10)
	tm := res.Timings
	if tm.APSP <= 0 || tm.Hierarchy <= 0 {
		t.Fatalf("timings not populated: %+v", tm)
	}
}

// TestSecondPassAssignmentBruteForce re-derives the L̄ assignment rule for
// vertices outside converging bubbles from scratch: minimum over reachable
// converging bubbles (with non-empty V⁰) of the mean shortest-path distance
// to the V⁰ members.
func TestSecondPassAssignmentBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randomSym(rng, 70)
	tr, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	dis := dissimilarity(s)
	res, err := build(tr.Graph, tr.Tree, dis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the auxiliary structures independently.
	isConv := map[int32]bool{}
	for _, c := range res.Directed.Converging {
		isConv[c] = true
	}
	vb := tr.Tree.VertexBubbles(70)
	reach := res.Directed.ReachableConverging()
	// V⁰: first-pass members are exactly the vertices contained in ≥1
	// converging bubble (they keep their assignment per the algorithm).
	v0 := map[int32][]int32{}
	inConv := make([]bool, 70)
	for v := 0; v < 70; v++ {
		for _, b := range vb[v] {
			if isConv[b] {
				inConv[v] = true
			}
		}
		if inConv[v] {
			v0[res.Group[v]] = append(v0[res.Group[v]], int32(v))
		}
	}
	// Shortest paths on the dissimilarity-weighted TMFG.
	edges := tr.Graph.Edges()
	for i := range edges {
		edges[i].W = dis.At(int(edges[i].U), int(edges[i].V))
	}
	dg, err := graph.FromEdgesWS(nil, 70, edges)
	if err != nil {
		t.Fatal(err)
	}
	apsp, err := dg.AllPairsShortestPathsWS(context.Background(), exec.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 70; v++ {
		if inConv[v] {
			continue
		}
		cands := map[int32]bool{}
		for _, b := range vb[v] {
			for _, c := range reach[b] {
				cands[c] = true
			}
		}
		best := int32(-1)
		bestL := math.Inf(1)
		for c := range cands {
			members := v0[c]
			if len(members) == 0 {
				continue
			}
			sum := 0.0
			for _, u := range members {
				sum += apsp.At(u, int32(v))
			}
			l := sum / float64(len(members))
			if l < bestL || (l == bestL && c < best) {
				bestL, best = l, c
			}
		}
		if best >= 0 && res.Group[v] != best {
			t.Fatalf("vertex %d assigned to %d, brute force says %d", v, res.Group[v], best)
		}
	}
}

func TestPaperAssignmentVariant(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s := randomSym(rng, 60)
	tr, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 5)
	if err != nil {
		t.Fatal(err)
	}
	dis := dissimilarity(s)
	impl, err := build(tr.Graph, tr.Tree, dis, Options{})
	if err != nil {
		t.Fatal(err)
	}
	paper, err := build(tr.Graph, tr.Tree, dis, Options{PaperAssignment: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := paper.Dendrogram.Validate(1e-9); err != nil {
		t.Fatal(err)
	}
	// Group assignments are identical (the variant only changes the bubble
	// assignment of converging-bubble members).
	for v := range impl.Group {
		if impl.Group[v] != paper.Group[v] {
			t.Fatalf("group of %d differs between variants", v)
		}
	}
	// In the paper variant, converging-bubble members have their group as
	// their bubble.
	isConv := map[int32]bool{}
	for _, c := range paper.Directed.Converging {
		isConv[c] = true
	}
	vb := tr.Tree.VertexBubbles(60)
	for v := 0; v < 60; v++ {
		in := false
		for _, b := range vb[v] {
			if b == paper.Group[v] {
				in = true
			}
		}
		if in && paper.Bubble[v] != paper.Group[v] {
			t.Fatalf("paper variant: vertex %d bubble %d != group %d", v, paper.Bubble[v], paper.Group[v])
		}
	}
}
