package graph

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"pfg/internal/exec"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdgesWS(nil, n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// hasEdge reports whether {u, v} is an edge of g.
func hasEdge(g *Graph, u, v int32) bool {
	_, ok := g.EdgeWeight(u, v)
	return ok
}

// allPairs runs APSP on the default pool without a workspace.
func allPairs(t *testing.T, g *Graph) *APSP {
	t.Helper()
	a, err := g.AllPairsShortestPathsWS(context.Background(), exec.Default(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// pathGraph returns 0-1-2-...-(n-1) with unit weights.
func pathGraph(t *testing.T, n int) *Graph {
	edges := make([]Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, Edge{U: int32(i), V: int32(i + 1), W: 1})
	}
	return mustGraph(t, n, edges)
}

func randomConnectedGraph(rng *rand.Rand, n int, extraEdges int) []Edge {
	var edges []Edge
	// Random spanning tree first.
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		edges = append(edges, Edge{U: int32(u), V: int32(v), W: rng.Float64() + 0.01})
	}
	have := make(map[[2]int32]bool)
	for _, e := range edges {
		a, b := e.U, e.V
		if a > b {
			a, b = b, a
		}
		have[[2]int32{a, b}] = true
	}
	for k := 0; k < extraEdges; k++ {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		if have[[2]int32{u, v}] {
			continue
		}
		have[[2]int32{u, v}] = true
		edges = append(edges, Edge{U: u, V: v, W: rng.Float64() + 0.01})
	}
	return edges
}

func TestFromEdgesBasics(t *testing.T) {
	g := mustGraph(t, 4, []Edge{{0, 1, 1.5}, {1, 2, 2.5}, {0, 3, 0.5}})
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges=%d want 3", g.NumEdges())
	}
	if adj, _ := g.Neighbors(1); len(adj) != 2 {
		t.Fatal("wrong degree of 1")
	}
	if adj, _ := g.Neighbors(3); len(adj) != 1 {
		t.Fatal("wrong degree of 3")
	}
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) || hasEdge(g, 2, 3) {
		t.Fatal("EdgeWeight membership wrong")
	}
	if w, ok := g.EdgeWeight(1, 2); !ok || w != 2.5 {
		t.Fatalf("EdgeWeight(1,2)=%v,%v", w, ok)
	}
	if _, ok := g.EdgeWeight(2, 3); ok {
		t.Fatal("EdgeWeight on missing edge")
	}
	if got := g.WeightedDegree(0); got != 2.0 {
		t.Fatalf("WeightedDegree(0)=%v want 2", got)
	}
	total := 0.0
	for _, e := range g.Edges() {
		total += e.W
	}
	if total != 4.5 {
		t.Fatalf("total edge weight %v want 4.5", total)
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdgesWS(nil, 3, []Edge{{0, 0, 1}}); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, err := FromEdgesWS(nil, 3, []Edge{{0, 5, 1}}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := FromEdgesWS(nil, 3, []Edge{{0, 1, 1}, {1, 0, 2}}); err == nil {
		t.Fatal("duplicate edge accepted")
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	in := []Edge{{0, 2, 1}, {1, 2, 2}, {0, 1, 3}}
	g := mustGraph(t, 3, in)
	out := g.Edges()
	if len(out) != 3 {
		t.Fatalf("got %d edges", len(out))
	}
	for _, e := range out {
		if w, ok := g.EdgeWeight(e.U, e.V); !ok || w != e.W {
			t.Fatalf("edge %+v mismatch", e)
		}
	}
}

// TestCanonicalEdges pins the wire edge order: pairs lo < hi, sorted by low
// then high endpoint, the input left as it was, and nil kept apart from
// empty (null vs [] on the wire).
func TestCanonicalEdges(t *testing.T) {
	in := [][2]int32{{3, 1}, {0, 2}, {1, 0}, {2, 5}, {1, 2}}
	orig := slices.Clone(in)
	got := CanonicalEdges(in)
	want := [][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 5}}
	if !slices.Equal(got, want) {
		t.Fatalf("CanonicalEdges = %v, want %v", got, want)
	}
	if !slices.Equal(in, orig) {
		t.Fatalf("input mutated: %v", in)
	}
	for i := 1; i < len(got); i++ {
		if CompareEdges(got[i-1], got[i]) >= 0 || CompareEdges(got[i], got[i-1]) <= 0 {
			t.Fatalf("CompareEdges disagrees with the order at %d", i)
		}
	}
	if CompareEdges([2]int32{2, 5}, [2]int32{2, 5}) != 0 {
		t.Fatal("equal edges compare non-zero")
	}
	if CanonicalEdges(nil) != nil {
		t.Fatal("nil in, non-nil out")
	}
	if e := CanonicalEdges([][2]int32{}); e == nil || len(e) != 0 {
		t.Fatalf("empty in, %v out", e)
	}
}

func TestConnected(t *testing.T) {
	g := pathGraph(t, 5)
	if c := g.NumComponentsWithout(nil, nil); c != 1 {
		t.Fatalf("path has %d components, want 1", c)
	}
	// Removing the middle vertex disconnects.
	if c := g.NumComponentsWithout(nil, []int32{2}); c != 2 {
		t.Fatalf("path minus middle vertex has %d components, want 2", c)
	}
	// Removing an endpoint does not.
	if c := g.NumComponentsWithout(nil, []int32{0}); c != 1 {
		t.Fatalf("path minus endpoint has %d components, want 1", c)
	}
	empty := mustGraph(t, 3, nil)
	if c := empty.NumComponentsWithout(nil, nil); c != 3 {
		t.Fatalf("3 isolated vertices form %d components, want 3", c)
	}
	single := mustGraph(t, 1, nil)
	if c := single.NumComponentsWithout(nil, nil); c != 1 {
		t.Fatalf("single vertex forms %d components, want 1", c)
	}
}

func TestComponentsWithout(t *testing.T) {
	g := pathGraph(t, 5)
	comps := g.ComponentsWithout([]int32{2})
	if len(comps) != 2 {
		t.Fatalf("got %d components want 2", len(comps))
	}
	sizes := map[int]bool{len(comps[0]): true, len(comps[1]): true}
	if !sizes[2] {
		t.Fatalf("components should have size 2 and 2, got %v", comps)
	}
}

func TestTrianglesK4(t *testing.T) {
	var edges []Edge
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			edges = append(edges, Edge{U: i, V: j, W: 1})
		}
	}
	g := mustGraph(t, 4, edges)
	tris := g.Triangles()
	if len(tris) != 4 {
		t.Fatalf("K4 has 4 triangles, got %d", len(tris))
	}
	for _, tr := range tris {
		if !(tr[0] < tr[1] && tr[1] < tr[2]) {
			t.Fatalf("triangle not canonical: %v", tr)
		}
	}
}

func TestTrianglesCountsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		edges := randomConnectedGraph(rng, n, 2*n)
		g, err := FromEdgesWS(nil, n, edges)
		if err != nil {
			return false
		}
		got := len(g.Triangles())
		want := 0
		for a := int32(0); int(a) < n; a++ {
			for b := a + 1; int(b) < n; b++ {
				for c := b + 1; int(c) < n; c++ {
					if hasEdge(g, a, b) && hasEdge(g, b, c) && hasEdge(g, a, c) {
						want++
					}
				}
			}
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraSimple(t *testing.T) {
	// Triangle with shortcut: 0-1 (5), 0-2 (1), 2-1 (1): dist(0,1)=2.
	g := mustGraph(t, 3, []Edge{{0, 1, 5}, {0, 2, 1}, {2, 1, 1}})
	d := g.Dijkstra(0, nil)
	if d[1] != 2 || d[2] != 1 || d[0] != 0 {
		t.Fatalf("got %v", d)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := mustGraph(t, 3, []Edge{{0, 1, 1}})
	d := g.Dijkstra(0, nil)
	if !math.IsInf(d[2], 1) {
		t.Fatalf("unreachable should be +Inf, got %v", d[2])
	}
}

func floydWarshall(g *Graph) []float64 {
	n := g.N
	d := make([]float64, n*n)
	for i := range d {
		d[i] = math.Inf(1)
	}
	for v := 0; v < n; v++ {
		d[v*n+v] = 0
		adj, wts := g.Neighbors(int32(v))
		for i, u := range adj {
			if wts[i] < d[v*n+int(u)] {
				d[v*n+int(u)] = wts[i]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i*n+k]+d[k*n+j] < d[i*n+j] {
					d[i*n+j] = d[i*n+k] + d[k*n+j]
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(20)
		edges := randomConnectedGraph(rng, n, n)
		g, err := FromEdgesWS(nil, n, edges)
		if err != nil {
			return false
		}
		want := floydWarshall(g)
		for src := 0; src < n; src++ {
			d := g.Dijkstra(int32(src), nil)
			for v := 0; v < n; v++ {
				if math.Abs(d[v]-want[src*n+v]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestAPSPMatchesDijkstraAndIsSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 60
	edges := randomConnectedGraph(rng, n, 3*n)
	g := mustGraph(t, n, edges)
	a := allPairs(t, g)
	for src := 0; src < n; src += 7 {
		d := g.Dijkstra(int32(src), nil)
		for v := 0; v < n; v++ {
			if a.At(int32(src), int32(v)) != d[v] {
				t.Fatalf("APSP mismatch at (%d,%d)", src, v)
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if math.Abs(a.At(int32(u), int32(v))-a.At(int32(v), int32(u))) > 1e-12 {
				t.Fatal("APSP not symmetric on undirected graph")
			}
		}
	}
}

func TestAPSPTriangleInequality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 40
	g := mustGraph(t, n, randomConnectedGraph(rng, n, 2*n))
	a := allPairs(t, g)
	for u := int32(0); int(u) < n; u++ {
		for v := int32(0); int(v) < n; v++ {
			for w := int32(0); int(w) < n; w += 5 {
				if a.At(u, v) > a.At(u, w)+a.At(w, v)+1e-9 {
					t.Fatalf("triangle inequality violated at (%d,%d,%d)", u, v, w)
				}
			}
		}
	}
}

func TestDijkstraReusesOutSlice(t *testing.T) {
	g := pathGraph(t, 4)
	buf := make([]float64, 4)
	out := g.Dijkstra(0, buf)
	if &out[0] != &buf[0] {
		t.Fatal("should reuse provided slice")
	}
}

// TestAPSPWorkersBitIdentical pins the Dijkstra APSP to the same bits for
// every worker budget: each source's run is sequential, so the partition of
// sources across workers cannot change any distance.
func TestAPSPWorkersBitIdentical(t *testing.T) {
	g := benchGraph(t, 90)
	ctx := context.Background()
	p1 := exec.New(1)
	defer p1.Close()
	a1, err := g.AllPairsShortestPathsWS(ctx, p1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		p := exec.New(workers)
		a, err := g.AllPairsShortestPathsWS(ctx, p, nil)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range a.Dist {
			if math.Float64bits(a.Dist[i]) != math.Float64bits(a1.Dist[i]) {
				t.Fatalf("workers=%d: dist[%d] = %v, want %v", workers, i, a.Dist[i], a1.Dist[i])
			}
		}
	}
}

// TestDijkstraNegativeWeightPanics pins the precondition guard: without a
// settled set, a negative (or NaN) weight would re-insert popped vertices
// forever; the pop bound must turn that into a panic, not a hang.
func TestDijkstraNegativeWeightPanics(t *testing.T) {
	g := mustGraph(t, 2, []Edge{{U: 0, V: 1, W: -1}})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative edge weight")
		}
	}()
	g.Dijkstra(0, nil)
}

// setArc overwrites the weight of the directed arc u→v only, leaving v→u
// as it was.
func setArc(t *testing.T, g *Graph, u, v int32, w float64) {
	t.Helper()
	k := g.slot(u, v)
	if k < 0 {
		t.Fatalf("no arc %d→%d", u, v)
	}
	g.Weight[k] = w
}

// checkAPSPEverySource compares every (src, v) entry of the APSP matrix,
// bit for bit, against a per-source Graph.Dijkstra, for pools of 1, 2, 3 and
// 7 workers, so the source batches split differently with each pool.
func checkAPSPEverySource(t *testing.T, name string, g *Graph) {
	t.Helper()
	want := make([]float64, 0, g.N*g.N)
	for src := int32(0); int(src) < g.N; src++ {
		want = append(want, g.Dijkstra(src, nil)...)
	}
	for _, workers := range []int{1, 2, 3, 7} {
		p := exec.New(workers)
		a, err := g.AllPairsShortestPathsWS(context.Background(), p, nil)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range a.Dist {
			if math.Float64bits(d) != math.Float64bits(want[i]) {
				t.Fatalf("%s, workers=%d: dist(%d,%d) = %v, Dijkstra %v", name, workers, i/g.N, i%g.N, d, want[i])
			}
		}
	}
}

// TestAPSPMatchesDijkstraEverySource pins the swept APSP to Dijkstra's
// bits on every entry, across the inputs that stress the sweeps: minimum
// walks that run against the BFS order the sweeps visit, components a
// batch's sources cannot reach, +Inf arcs in one or both directions,
// asymmetric and zero weights, and path sums that overflow to +Inf.
func TestAPSPMatchesDijkstraEverySource(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	inf := math.Inf(1)
	for _, n := range []int{2, 30, 120} {
		checkAPSPEverySource(t, "random", mustGraph(t, n, randomConnectedGraph(rng, n, 2*n)))
	}
	checkAPSPEverySource(t, "benchGraph", benchGraph(t, 150))

	// A path whose vertex ids are shuffled: BFS starts from vertex 0 in the
	// middle of the path, so half of every long walk runs backwards
	// through the positions.
	perm := rng.Perm(97)
	var edges []Edge
	for i := 0; i+1 < len(perm); i++ {
		edges = append(edges, Edge{U: int32(perm[i]), V: int32(perm[i+1]), W: 0.1 + rng.Float64()})
	}
	checkAPSPEverySource(t, "shuffled path", mustGraph(t, len(perm), edges))

	// A ladder: the heavy rail is numbered 0…m−1 and the light rail in
	// reverse, so BFS from vertex 0 reaches the light rail from its far
	// end and minimum walks (down a rung, along the light rail, back up)
	// run against the BFS order.
	const m = 40
	edges = edges[:0]
	for i := int32(0); i < m; i++ {
		edges = append(edges, Edge{U: i, V: 2*m - 1 - i, W: 0.5})
		if i+1 < m {
			edges = append(edges,
				Edge{U: i, V: i + 1, W: 1 + rng.Float64()},
				Edge{U: 2*m - 1 - i, V: 2*m - 2 - i, W: 0.001 * (1 + rng.Float64())})
		}
	}
	checkAPSPEverySource(t, "backward ladder", mustGraph(t, 2*m, edges))

	// Two components and an isolated vertex.
	edges = edges[:0]
	for _, e := range randomConnectedGraph(rng, 25, 40) {
		edges = append(edges, e, Edge{U: e.U + 25, V: e.V + 25, W: e.W * 2})
	}
	checkAPSPEverySource(t, "disconnected", mustGraph(t, 51, edges))

	// +Inf arcs in both directions, then in one direction only.
	edges = randomConnectedGraph(rng, 60, 120)
	for i := range edges {
		if i%5 == 0 {
			edges[i].W = inf
		}
	}
	checkAPSPEverySource(t, "+Inf edges", mustGraph(t, 60, edges))
	g := mustGraph(t, 60, randomConnectedGraph(rng, 60, 120))
	for i, e := range g.Edges() {
		if i%3 == 0 {
			setArc(t, g, e.U, e.V, inf)
		}
	}
	checkAPSPEverySource(t, "+Inf arcs one way", g)

	// Independent weights per direction.
	g = mustGraph(t, 80, randomConnectedGraph(rng, 80, 200))
	for k := range g.Weight {
		g.Weight[k] = rng.Float64() * 3
	}
	checkAPSPEverySource(t, "asymmetric", g)

	// Zero weights (including -0) make ties and zero-length cycles.
	edges = randomConnectedGraph(rng, 70, 150)
	for i := range edges {
		switch i % 3 {
		case 0:
			edges[i].W = 0
		case 1:
			edges[i].W = math.Copysign(0, -1)
		}
	}
	checkAPSPEverySource(t, "zero weights", mustGraph(t, 70, edges))

	// Weights near MaxFloat64/2: two or three arcs already overflow.
	edges = randomConnectedGraph(rng, 50, 100)
	for i := range edges {
		edges[i].W = math.MaxFloat64 / 2 * (0.4 + rng.Float64())
	}
	checkAPSPEverySource(t, "near MaxFloat64/2", mustGraph(t, 50, edges))
}

// TestAPSPNegativeWeightPanics: a negative or NaN weight, on either arc of
// an edge, must panic on the calling goroutine (the label-correcting pass
// would otherwise cycle forever), and promptly.
func TestAPSPNegativeWeightPanics(t *testing.T) {
	for _, tc := range []struct {
		name     string
		w        float64
		reversed bool
	}{
		{"negative", -1, false},
		{"NaN", math.NaN(), false},
		{"negative one way", -0.5, true},
	} {
		for _, workers := range []int{1, 2} {
			g := mustGraph(t, 20, randomConnectedGraph(rand.New(rand.NewSource(3)), 20, 20))
			if tc.reversed {
				setArc(t, g, g.Adj[g.Off[5]], 5, tc.w)
			} else {
				g.Weight[g.Off[5]] = tc.w
			}
			done := make(chan any)
			go func() {
				defer func() { done <- recover() }()
				p := exec.New(workers)
				defer p.Close()
				g.AllPairsShortestPathsWS(context.Background(), p, nil)
			}()
			select {
			case r := <-done:
				if r == nil {
					t.Fatalf("%s, workers=%d: no panic", tc.name, workers)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s, workers=%d: APSP hung", tc.name, workers)
			}
		}
	}
}

// countdownCtx reports cancellation from its (k+1)-th Err call on, so a
// test can cancel deterministically in the middle of a run.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestAPSPCancelledMidRun: cancellation between sources stops the chains
// and returns ctx.Err() rather than a partial matrix.
func TestAPSPCancelledMidRun(t *testing.T) {
	g := benchGraph(t, 200)
	for _, workers := range []int{1, 2} {
		ctx := &countdownCtx{Context: context.Background()}
		ctx.left.Store(60)
		p := exec.New(workers)
		a, err := g.AllPairsShortestPathsWS(ctx, p, nil)
		p.Close()
		if err != context.Canceled || a != nil {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, a, err)
		}
	}
}
