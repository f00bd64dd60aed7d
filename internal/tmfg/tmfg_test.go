package tmfg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pfg/internal/bubbletree"
	"pfg/internal/exec"
	"pfg/internal/matrix"
	"pfg/internal/planarity"
	"pfg/internal/ws"
)

// randomSym returns a random symmetric similarity matrix with unit diagonal
// and off-diagonal entries in (0, 1); entries are distinct with probability
// one, keeping tie-breaking out of comparisons with the reference code.
// buildDefault runs BuildWS on the default pool without a workspace.
func buildDefault(s *matrix.Sym, prefix int) (*Result, error) {
	return BuildWS(context.Background(), exec.Default(), nil, s, prefix)
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

// appendixMatrix is the 6×6 correlation matrix from Figure 12 of the paper.
func appendixMatrix() *matrix.Sym {
	rows := [][]float64{
		{1, 0.8, 0.4, 0.8, 0.8, 0.4},
		{0.8, 1, 0.41, 0.9, 0.4, 0},
		{0.4, 0.41, 1, 0, 0.4, 0.42},
		{0.8, 0.9, 0, 1, 0.8, 0.8},
		{0.8, 0.4, 0.4, 0.8, 1, 0.8},
		{0.4, 0, 0.42, 0.8, 0.8, 1},
	}
	s := matrix.NewSym(6)
	for i := range rows {
		for j := range rows[i] {
			s.Data[i*6+j] = rows[i][j]
		}
	}
	return s
}

// sequentialTMFG is a direct transcription of the original sequential TMFG
// algorithm (Massara et al.): every iteration scans all (face, vertex) pairs
// and inserts the single best vertex. Used as the reference for prefix=1.
func sequentialTMFG(s *matrix.Sym) map[[2]int32]bool {
	n := s.N
	type f3 = [3]int32
	sums := make([]float64, n)
	for i := 0; i < n; i++ {
		sums[i] = s.RowSum(i)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < n; i++ { // selection sort by (sum desc, id asc)
		best := i
		for j := i + 1; j < n; j++ {
			if sums[order[j]] > sums[order[best]] {
				best = j
			}
		}
		order[i], order[best] = order[best], order[i]
	}
	c := order[:4]
	edges := map[[2]int32]bool{}
	add := func(a, b int) {
		u, v := int32(a), int32(b)
		if u > v {
			u, v = v, u
		}
		edges[[2]int32{u, v}] = true
	}
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			add(c[i], c[j])
		}
	}
	faces := []f3{
		{int32(c[0]), int32(c[1]), int32(c[2])},
		{int32(c[0]), int32(c[1]), int32(c[3])},
		{int32(c[0]), int32(c[2]), int32(c[3])},
		{int32(c[1]), int32(c[2]), int32(c[3])},
	}
	used := make([]bool, n)
	for _, v := range c {
		used[v] = true
	}
	for inserted := 4; inserted < n; inserted++ {
		bestGain := math.Inf(-1)
		bestV, bestF := -1, -1
		for fi, f := range faces {
			for v := 0; v < n; v++ {
				if used[v] {
					continue
				}
				g := s.At(v, int(f[0])) + s.At(v, int(f[1])) + s.At(v, int(f[2]))
				if g > bestGain {
					bestGain, bestV, bestF = g, v, fi
				}
			}
		}
		f := faces[bestF]
		used[bestV] = true
		add(bestV, int(f[0]))
		add(bestV, int(f[1]))
		add(bestV, int(f[2]))
		v32 := int32(bestV)
		faces[bestF] = f3{v32, f[0], f[1]}
		faces = append(faces, f3{v32, f[1], f[2]}, f3{v32, f[0], f[2]})
	}
	return edges
}

func edgeSet(edges [][2]int32) map[[2]int32]bool {
	m := make(map[[2]int32]bool, len(edges))
	for _, e := range edges {
		u, v := e[0], e[1]
		if u > v {
			u, v = v, u
		}
		m[[2]int32{u, v}] = true
	}
	return m
}

func TestBuildRejectsBadInput(t *testing.T) {
	if _, err := buildDefault(matrix.NewSym(3), 1); err == nil {
		t.Fatal("n=3 must be rejected")
	}
	if _, err := buildDefault(matrix.NewSym(5), 0); err == nil {
		t.Fatal("prefix=0 must be rejected")
	}
}

func TestBuildN4(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s := randomSym(rng, 4)
	r, err := buildDefault(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Edges) != 6 {
		t.Fatalf("K4 TMFG must have 6 edges, got %d", len(r.Edges))
	}
	if r.Tree.NumNodes() != 1 {
		t.Fatalf("n=4 bubble tree must have 1 node, got %d", r.Tree.NumNodes())
	}
	if r.Rounds != 0 {
		t.Fatalf("n=4 needs 0 rounds, got %d", r.Rounds)
	}
}

func TestEdgeCountAndPlanarity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{5, 8, 20, 67, 150} {
		for _, prefix := range []int{1, 2, 5, 10, 50} {
			s := randomSym(rng, n)
			r, err := buildDefault(s, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Edges) != 3*n-6 {
				t.Fatalf("n=%d prefix=%d: %d edges, want %d", n, prefix, len(r.Edges), 3*n-6)
			}
			if !planarity.Planar(n, r.Edges) {
				t.Fatalf("n=%d prefix=%d: TMFG not planar", n, prefix)
			}
			if !r.Graph.Connected() {
				t.Fatalf("n=%d prefix=%d: TMFG not connected", n, prefix)
			}
		}
	}
}

func TestMaximality(t *testing.T) {
	// TMFG is maximal planar: adding any absent edge must break planarity.
	rng := rand.New(rand.NewSource(3))
	n := 24
	s := randomSym(rng, n)
	r, err := buildDefault(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	have := edgeSet(r.Edges)
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if !have[[2]int32{a, b}] {
				if planarity.Planar(n, append(r.Edges, [2]int32{a, b})) {
					t.Fatalf("adding (%d,%d) keeps planarity: TMFG not maximal", a, b)
				}
			}
		}
	}
}

func TestPrefix1MatchesSequentialReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		s := randomSym(rng, n)
		r, err := buildDefault(s, 1)
		if err != nil {
			return false
		}
		want := sequentialTMFG(s)
		got := edgeSet(r.Edges)
		if len(got) != len(want) {
			return false
		}
		for e := range want {
			if !got[e] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := randomSym(rng, 80)
	for _, prefix := range []int{1, 7, 30} {
		a, err := buildDefault(s, prefix)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildDefault(s, prefix)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Edges) != len(b.Edges) {
			t.Fatal("nondeterministic edge count")
		}
		for i := range a.Edges {
			if a.Edges[i] != b.Edges[i] {
				t.Fatalf("prefix=%d: edge %d differs: %v vs %v", prefix, i, a.Edges[i], b.Edges[i])
			}
		}
	}
}

func TestBubbleTreeStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{5, 12, 60} {
		for _, prefix := range []int{1, 4, 16} {
			s := randomSym(rng, n)
			r, err := buildDefault(s, prefix)
			if err != nil {
				t.Fatal(err)
			}
			if r.Tree.NumNodes() != n-3 {
				t.Fatalf("n=%d: bubble tree has %d nodes, want %d", n, r.Tree.NumNodes(), n-3)
			}
			if err := r.Tree.Validate(); err != nil {
				t.Fatalf("n=%d prefix=%d: %v", n, prefix, err)
			}
			for b := range r.Tree.Nodes {
				if len(r.Tree.Nodes[b].Vertices) != 4 {
					t.Fatalf("TMFG bubble %d has %d vertices, want 4", b, len(r.Tree.Nodes[b].Vertices))
				}
			}
		}
	}
}

// TestBubbleTreeInteriorInvariant checks the invariant Algorithm 3 relies
// on: for every non-root bubble b, the subtree vertices of b minus the
// corners of b.Sep have no TMFG edge to the remaining vertices.
func TestBubbleTreeInteriorInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, prefix := range []int{1, 3, 10} {
		n := 40
		s := randomSym(rng, n)
		r, err := buildDefault(s, prefix)
		if err != nil {
			t.Fatal(err)
		}
		for b := int32(0); int(b) < r.Tree.NumNodes(); b++ {
			if b == r.Tree.Root {
				continue
			}
			sep := r.Tree.Nodes[b].Sep
			interior := map[int32]bool{}
			for _, v := range r.Tree.SubtreeVertices(b) {
				interior[v] = true
			}
			for _, c := range sep {
				delete(interior, c)
			}
			for _, e := range r.Edges {
				u, v := e[0], e[1]
				uc := u == sep[0] || u == sep[1] || u == sep[2]
				vc := v == sep[0] || v == sep[1] || v == sep[2]
				if uc || vc {
					continue
				}
				if interior[u] != interior[v] {
					t.Fatalf("prefix=%d bubble=%d: edge (%d,%d) crosses separating triangle %v", prefix, b, u, v, sep)
				}
			}
		}
	}
}

// TestGenericBubbleTreeMatches checks that the original O(n²) bubble tree
// construction on the finished TMFG produces the same set of bubbles and
// separating triangles as the on-the-fly construction.
func TestGenericBubbleTreeMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, prefix := range []int{1, 5} {
		n := 30
		s := randomSym(rng, n)
		r, err := buildDefault(s, prefix)
		if err != nil {
			t.Fatal(err)
		}
		gen, err := bubbletree.BuildGenericCtx(context.Background(), exec.Default(), r.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if gen.NumNodes() != r.Tree.NumNodes() {
			t.Fatalf("generic tree has %d nodes, on-the-fly has %d", gen.NumNodes(), r.Tree.NumNodes())
		}
		key := func(vs []int32) [4]int32 {
			var k [4]int32
			copy(k[:], vs)
			return k
		}
		want := map[[4]int32]bool{}
		for _, nd := range r.Tree.Nodes {
			want[key(nd.Vertices)] = true
		}
		for _, nd := range gen.Nodes {
			if !want[key(nd.Vertices)] {
				t.Fatalf("generic bubble %v not found in on-the-fly tree", nd.Vertices)
			}
		}
		// Same multiset of separating triangles (tree edges).
		wantSep := map[[3]int32]int{}
		for i, nd := range r.Tree.Nodes {
			if int32(i) != r.Tree.Root {
				wantSep[canonTri(nd.Sep)]++
			}
		}
		for i, nd := range gen.Nodes {
			if int32(i) != gen.Root {
				wantSep[canonTri(nd.Sep)]--
			}
		}
		for tri, c := range wantSep {
			if c != 0 {
				t.Fatalf("separating triangle %v count mismatch %d", tri, c)
			}
		}
	}
}

func canonTri(tr [3]int32) [3]int32 {
	if tr[0] > tr[1] {
		tr[0], tr[1] = tr[1], tr[0]
	}
	if tr[1] > tr[2] {
		tr[1], tr[2] = tr[2], tr[1]
	}
	if tr[0] > tr[1] {
		tr[0], tr[1] = tr[1], tr[0]
	}
	return tr
}

func TestAppendixExamplePrefix1(t *testing.T) {
	// Figure 13(a): with PREFIX=1 the algorithm starts from clique
	// {0,1,3,4}, inserts 5 into {0,3,4}, then 2 into {0,4,5}.
	s := appendixMatrix()
	r, err := buildDefault(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantInitial := map[int32]bool{0: true, 1: true, 3: true, 4: true}
	for _, v := range r.Initial {
		if !wantInitial[v] {
			t.Fatalf("initial clique %v, want {0,1,3,4}", r.Initial)
		}
	}
	got := edgeSet(r.Edges)
	want := edgeSet([][2]int32{
		{0, 1}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {3, 4}, // clique
		{0, 5}, {3, 5}, {4, 5}, // insert 5 into {0,3,4}
		{0, 2}, {4, 2}, {5, 2}, // insert 2 into {0,4,5}
	})
	for e := range want {
		if !got[e] {
			t.Fatalf("missing edge %v; got %v", e, r.Edges)
		}
	}
	// Bubbles must be {0,1,3,4}, {0,3,4,5}, {0,2,4,5} (Figure 13(c)).
	wantBubbles := map[[4]int32]bool{
		{0, 1, 3, 4}: true,
		{0, 3, 4, 5}: true,
		{0, 2, 4, 5}: true,
	}
	for _, nd := range r.Tree.Nodes {
		var k [4]int32
		copy(k[:], nd.Vertices)
		if !wantBubbles[k] {
			t.Fatalf("unexpected bubble %v", nd.Vertices)
		}
	}
}

func TestAppendixExamplePrefix3(t *testing.T) {
	// Figure 13(e): with PREFIX=3, vertices 5 and 2 are inserted in one
	// round; 2 goes into {0,1,4} because {0,4,5} does not exist yet.
	s := appendixMatrix()
	r, err := buildDefault(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := edgeSet(r.Edges)
	want := edgeSet([][2]int32{
		{0, 1}, {0, 3}, {0, 4}, {1, 3}, {1, 4}, {3, 4},
		{0, 5}, {3, 5}, {4, 5}, // 5 into {0,3,4}
		{0, 2}, {1, 2}, {4, 2}, // 2 into {0,1,4}
	})
	for e := range want {
		if !got[e] {
			t.Fatalf("missing edge %v; got %v", e, r.Edges)
		}
	}
	if r.Rounds != 1 {
		t.Fatalf("prefix=3 must finish in 1 round, took %d", r.Rounds)
	}
	// Bubbles must be {0,1,3,4}, {0,3,4,5}, {0,1,2,4} (Figure 13(g)).
	wantBubbles := map[[4]int32]bool{
		{0, 1, 3, 4}: true,
		{0, 3, 4, 5}: true,
		{0, 1, 2, 4}: true,
	}
	for _, nd := range r.Tree.Nodes {
		var k [4]int32
		copy(k[:], nd.Vertices)
		if !wantBubbles[k] {
			t.Fatalf("unexpected bubble %v", nd.Vertices)
		}
	}
}

func TestLargerPrefixFewerRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	s := randomSym(rng, 200)
	r1, err := buildDefault(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	r50, err := buildDefault(s, 50)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Rounds != 196 {
		t.Fatalf("prefix=1 needs n-4 rounds, got %d", r1.Rounds)
	}
	if r50.Rounds >= r1.Rounds/2 {
		t.Fatalf("prefix=50 should need far fewer rounds: %d vs %d", r50.Rounds, r1.Rounds)
	}
}

func TestEdgeWeightSumQualityAcrossPrefixes(t *testing.T) {
	// Figure 7's shape: batched TMFG keeps the edge weight sum within a few
	// percent of the exact (prefix=1) TMFG.
	rng := rand.New(rand.NewSource(11))
	s := randomSym(rng, 150)
	exact, err := buildDefault(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := exact.EdgeWeightSum(s)
	for _, prefix := range []int{2, 5, 10, 30, 50} {
		r, err := buildDefault(s, prefix)
		if err != nil {
			t.Fatal(err)
		}
		ratio := r.EdgeWeightSum(s) / base
		if ratio < 0.85 || ratio > 1.1 {
			t.Fatalf("prefix=%d: edge weight ratio %.3f outside [0.85, 1.1]", prefix, ratio)
		}
	}
}

func TestVertexBubblesConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s := randomSym(rng, 50)
	r, err := buildDefault(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	vb := r.Tree.VertexBubbles(50)
	for v := 0; v < 50; v++ {
		if len(vb[v]) == 0 {
			t.Fatalf("vertex %d in no bubble", v)
		}
		for _, b := range vb[v] {
			found := false
			for _, u := range r.Tree.Nodes[b].Vertices {
				if u == int32(v) {
					found = true
				}
			}
			if !found {
				t.Fatalf("vertex %d listed in bubble %d but absent", v, b)
			}
		}
	}
}

// TestDeterminismAcrossThreadCounts verifies the construction is identical
// regardless of parallelism, which the test suite and the paper's
// reproducibility claims rely on.
func TestDeterminismAcrossThreadCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	s := randomSym(rng, 150)
	build := func(threads int) *Result {
		old := runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(old)
		r, err := buildDefault(s, 20)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a := build(1)
	b := build(runtime.NumCPU())
	if len(a.Edges) != len(b.Edges) {
		t.Fatal("edge count differs across thread counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("edge %d differs across thread counts: %v vs %v", i, a.Edges[i], b.Edges[i])
		}
	}
	if a.Tree.Root != b.Tree.Root || a.Tree.NumNodes() != b.Tree.NumNodes() {
		t.Fatal("bubble tree differs across thread counts")
	}
}

// selectBatchFullSort is the selection rule as a test oracle that trusts
// nothing the builder stores about gains: it finds every live face's best
// vertex from scratch, with a naive ascending scan of b.remaining in the
// kernel's addition order and the remaining[0] fallback when every gain is
// -Inf, sorts all the candidates by candLess, keeps the first prefix and
// drops repeated vertices. dead marks the faces earlier batches consumed.
// It also returns how many live faces had only -Inf gains. b.remaining must
// be non-empty.
func selectBatchFullSort(b *builder, dead map[int32]bool, prefix int) (batch []candidate, infFaces int) {
	n, data := b.s.N, b.s.Data
	var cands []candidate
	for i, f := range b.faces {
		if dead[int32(i)] {
			continue
		}
		c := candidate{gain: math.Inf(-1), vert: -1, face: int32(i)}
		for _, u := range b.remaining {
			g := data[int(f.v[0])*n+int(u)] + data[int(f.v[1])*n+int(u)] + data[int(f.v[2])*n+int(u)]
			if g > c.gain {
				c.gain, c.vert = g, u
			}
		}
		if c.vert < 0 {
			c.vert = b.remaining[0]
			infFaces++
		}
		cands = append(cands, c)
	}
	if err := exec.Sort(context.Background(), exec.Default(), cands, candLess); err != nil {
		panic(err)
	}
	seen := map[int32]bool{}
	for _, c := range cands[:min(prefix, len(cands))] {
		if !seen[c.vert] {
			seen[c.vert] = true
			batch = append(batch, c)
		}
	}
	return batch, infFaces
}

// checkBatches drives a real builder on s round by round and fails the test
// unless every batch equals the full-sort oracle's, computed just before
// the round. It returns the rounds compared and the face-rounds at -Inf
// gain.
func checkBatches(t *testing.T, pool *exec.Pool, name string, s *matrix.Sym, prefix int) (rounds, infFaces int) {
	t.Helper()
	w := ws.Get()
	defer ws.Put(w)
	b := builderPool.Get().(*builder)
	defer b.recycle()
	b.init(context.Background(), pool, w, s, prefix)
	if err := b.initClique(); err != nil {
		t.Fatal(err)
	}
	dead := map[int32]bool{}
	for ; len(b.remaining) > 0; rounds++ {
		want, inf := selectBatchFullSort(b, dead, prefix)
		infFaces += inf
		if err := b.round(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(b.batch, want) {
			t.Fatalf("%s prefix=%d round %d: batch %v, full sort %v", name, prefix, rounds, b.batch, want)
		}
		for _, c := range want {
			dead[c.face] = true
		}
	}
	return rounds, infFaces
}

// quantizedSym returns a random symmetric matrix whose entries are
// scale·k/8 for small integers k, so exact gain ties are common and
// candLess's vertex and face tie rules decide the batch.
func quantizedSym(rng *rand.Rand, n int, scale float64) *matrix.Sym {
	s := matrix.NewSym(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, scale)
		for j := i + 1; j < n; j++ {
			s.Set(i, j, scale*float64(rng.Intn(9))/8)
		}
	}
	return s
}

// TestSelectBatchMatchesFullSort drives real builders round by round and
// checks every batch against the full-sort oracle. The n=400 input at large
// prefixes has rescans big enough to split across the pool.
func TestSelectBatchMatchesFullSort(t *testing.T) {
	pool := exec.New(2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(16))
	type input struct {
		name string
		s    *matrix.Sym
	}
	var inputs []input
	for _, n := range []int{9, 40, 120} {
		inputs = append(inputs, input{fmt.Sprintf("eighths n=%d", n), quantizedSym(rng, n, 1)})
	}
	// Entries near -MaxFloat64/3: some three-row gains overflow to -Inf and
	// some faces have no finite candidate at all (recomputeGain's -Inf path).
	huge := quantizedSym(rng, 40, 1)
	for i := range huge.Data {
		huge.Data[i] = -math.MaxFloat64 / 3 * (1 + (huge.Data[i]-0.5)/16)
	}
	inputs = append(inputs, input{"near -MaxFloat64/3", huge})
	inputs = append(inputs, input{"eighths n=400", quantizedSym(rng, 400, 1)})
	rounds, infFaces := 0, 0
	for _, in := range inputs {
		for _, prefix := range []int{1, 2, 3, 10, 50, in.s.N} {
			r, inf := checkBatches(t, pool, in.name, in.s, prefix)
			rounds += r
			infFaces += inf
		}
	}
	if infFaces == 0 {
		t.Fatal("no round had a face whose every gain overflowed to -Inf")
	}
	t.Logf("%d rounds compared, %d face-rounds at -Inf gain", rounds, infFaces)
}

// FuzzTMFGBatches checks every batch of a real build against the full-sort
// oracle. The payload decodes to an n×n symmetric matrix, n in [4, 24],
// whose entries are eighths (so gain ties are common) or, in huge mode,
// near -MaxFloat64/3 (so gains overflow to -Inf), and a prefix in [1, n].
func FuzzTMFGBatches(f *testing.F) {
	f.Add(uint8(5), uint8(0), false, []byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	f.Add(uint8(20), uint8(2), false, []byte{8, 8, 0, 0, 4, 4, 8, 0})
	f.Add(uint8(12), uint8(11), true, []byte{0, 8, 1, 7, 2, 6, 3, 5, 4})
	f.Add(uint8(20), uint8(0), true, []byte{7})
	pool := exec.New(2)
	defer pool.Close()
	f.Fuzz(func(t *testing.T, nRaw, prefixRaw uint8, huge bool, entries []byte) {
		n := 4 + int(nRaw)%21
		prefix := 1 + int(prefixRaw)%n
		s := matrix.NewSym(n)
		k := 0
		for i := 0; i < n; i++ {
			s.Set(i, i, 1)
			for j := i + 1; j < n; j++ {
				x := 0.0
				if len(entries) > 0 {
					x = float64(entries[k%len(entries)]%9) / 8
				}
				k++
				if huge {
					x = -math.MaxFloat64 / 3 * (1 + (x-0.5)/16)
				}
				s.Set(i, j, x)
			}
		}
		checkBatches(t, pool, "fuzz", s, prefix)
	})
}
