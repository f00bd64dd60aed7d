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
	"pfg/internal/pmfg"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
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

// vertexBubbles lists the bubbles that hold each of the tree's n vertices.
func vertexBubbles(tree *bubbletree.Tree, n int) *ws.Grouping {
	vb := new(ws.Grouping)
	tree.VertexBubblesInto(nil, vb, n)
	return vb
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
	vb := vertexBubbles(tr.Tree, 60)
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
		for _, b := range vb.Group(v) {
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

// TestGroupHeightsFollowAppendOrder pins the height rule: the merges inside
// a group of nb vertices carry exactly 1/(nb−1), …, 1/2, 1 in merge order,
// and every merge across groups carries the number of groups under it. The
// input is classed series, so the TMFG and the PMFG split it into several
// groups.
func TestGroupHeightsFollowAppendOrder(t *testing.T) {
	ctx, pool := context.Background(), exec.Default()
	for _, n := range []int{48, 96} {
		series := tsgen.GenerateClassed("heights", n, 96, 6, 0.6, int64(n)).Series
		s, err := matrix.PearsonWS(ctx, pool, nil, series)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := tmfg.BuildWS(ctx, pool, nil, s, 10)
		if err != nil {
			t.Fatal(err)
		}
		pm, err := pmfg.BuildCtx(ctx, pool, s)
		if err != nil {
			t.Fatal(err)
		}
		pmTree, err := bubbletree.BuildGenericCtx(ctx, pool, pm.Graph)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			g    *graph.Graph
			tree *bubbletree.Tree
		}{{"tmfg", tm.Graph, tm.Tree}, {"pmfg", pm.Graph, pmTree}} {
			res, err := build(c.g, c.tree, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Groups) < 3 {
				t.Fatalf("%s n=%d: %d groups, want several", c.name, n, len(res.Groups))
			}
			size := map[int32]int{}
			for _, g := range res.Group {
				size[g]++
			}
			// under[x] is the set of groups below dendrogram node x.
			under := make([]map[int32]bool, n, 2*n-1)
			for v, g := range res.Group {
				under[v] = map[int32]bool{g: true}
			}
			heights := map[int32][]float64{}
			for i, m := range res.Dendrogram.Merges {
				u := map[int32]bool{}
				for g := range under[m.A] {
					u[g] = true
				}
				for g := range under[m.B] {
					u[g] = true
				}
				under = append(under, u)
				if len(u) > 1 {
					if m.Height != float64(len(u)) {
						t.Fatalf("%s n=%d: merge %d over %d groups has height %v", c.name, n, i, len(u), m.Height)
					}
					continue
				}
				for g := range u {
					heights[g] = append(heights[g], m.Height)
				}
			}
			for g, nb := range size {
				h := heights[g]
				if len(h) != nb-1 {
					t.Fatalf("%s n=%d: group %d of %d vertices has %d merges", c.name, n, g, nb, len(h))
				}
				for r, x := range h {
					if want := 1 / float64(nb-1-r); x != want {
						t.Fatalf("%s n=%d: group %d merge %d has height %v, want %v", c.name, n, g, r, x, want)
					}
				}
			}
		}
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

// TestNilDissimilarityMatchesMatrix pins BuildWS's nil-dis path: weighting
// each edge with √(2(1−s)) of its similarity weight gives bit for bit the
// result of passing DissimilarityWS(s), on a TMFG with its own bubble tree
// and on a PMFG with the generic one. A constant series and a duplicated
// one give both graphs edges of dissimilarity √2 and 0.
func TestNilDissimilarityMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n, l = 40, 64
	series := make([][]float64, n)
	for i := range series {
		series[i] = make([]float64, l)
		for t2 := range series[i] {
			series[i][t2] = rng.NormFloat64()
		}
	}
	for t2 := 0; t2 < l; t2++ {
		series[0][t2] = 2
		series[1][t2] = float64(1 - 2*(t2%2))
		series[2][t2] = series[1][t2]
	}
	ctx, pool := context.Background(), exec.Default()
	s, err := matrix.PearsonWS(ctx, pool, nil, series)
	if err != nil {
		t.Fatal(err)
	}
	dis := dissimilarity(s)
	tm, err := tmfg.BuildWS(ctx, pool, nil, s, 3)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := pmfg.BuildCtx(ctx, pool, s)
	if err != nil {
		t.Fatal(err)
	}
	pmTree, err := bubbletree.BuildGenericCtx(ctx, pool, pm.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		tree *bubbletree.Tree
	}{{"tmfg", tm.Graph, tm.Tree}, {"pmfg", pm.Graph, pmTree}} {
		got, err := build(c.g, c.tree, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := build(c.g, c.tree, dis, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gm, wm := got.Dendrogram.Merges, want.Dendrogram.Merges
		if len(gm) != len(wm) {
			t.Fatalf("%s: %d merges, want %d", c.name, len(gm), len(wm))
		}
		for i := range gm {
			if gm[i].A != wm[i].A || gm[i].B != wm[i].B || math.Float64bits(gm[i].Height) != math.Float64bits(wm[i].Height) {
				t.Fatalf("%s: merge %d is %v, want %v", c.name, i, gm[i], wm[i])
			}
		}
		for v := range want.Group {
			if got.Group[v] != want.Group[v] || got.Bubble[v] != want.Bubble[v] {
				t.Fatalf("%s: vertex %d in group %d bubble %d, want group %d bubble %d", c.name, v, got.Group[v], got.Bubble[v], want.Group[v], want.Bubble[v])
			}
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
	vb := vertexBubbles(tr.Tree, 70)
	reach, err := res.Directed.ReachableConvergingWS(context.Background(), exec.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// V⁰: first-pass members are exactly the vertices contained in ≥1
	// converging bubble (they keep their assignment per the algorithm).
	v0 := map[int32][]int32{}
	inConv := make([]bool, 70)
	for v := 0; v < 70; v++ {
		for _, b := range vb.Group(v) {
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
		for _, b := range vb.Group(v) {
			for _, c := range reach.Group(int(b)) {
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
	vb := vertexBubbles(tr.Tree, 60)
	for v := 0; v < 60; v++ {
		in := false
		for _, b := range vb.Group(v) {
			if b == paper.Group[v] {
				in = true
			}
		}
		if in && paper.Bubble[v] != paper.Group[v] {
			t.Fatalf("paper variant: vertex %d bubble %d != group %d", v, paper.Bubble[v], paper.Group[v])
		}
	}
}
