package graph

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pfg/internal/exec"
	"pfg/internal/ws"
)

func mustGraph(t *testing.T, n int, edges []Edge) *Graph {
	t.Helper()
	g, err := FromEdges(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
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
	if g.Degree(1) != 2 || g.Degree(3) != 1 {
		t.Fatal("wrong degrees")
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(2, 3) {
		t.Fatal("HasEdge wrong")
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
	if got := g.TotalWeight(); got != 4.5 {
		t.Fatalf("TotalWeight=%v want 4.5", got)
	}
}

func TestFromEdgesRejectsBadInput(t *testing.T) {
	if _, err := FromEdges(3, []Edge{{0, 0, 1}}); err == nil {
		t.Fatal("self loop accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 5, 1}}); err == nil {
		t.Fatal("out of range accepted")
	}
	if _, err := FromEdges(3, []Edge{{0, 1, 1}, {1, 0, 2}}); err == nil {
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
	if !g.Connected() {
		t.Fatal("path must be connected")
	}
	// Removing middle vertex disconnects.
	if g.Connected(2) {
		t.Fatal("path minus middle vertex must be disconnected")
	}
	// Removing endpoint does not.
	if !g.Connected(0) {
		t.Fatal("path minus endpoint must stay connected")
	}
	empty := mustGraph(t, 3, nil)
	if empty.Connected() {
		t.Fatal("3 isolated vertices are not connected")
	}
	single := mustGraph(t, 1, nil)
	if !single.Connected() {
		t.Fatal("single vertex is connected")
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
		g, err := FromEdges(n, edges)
		if err != nil {
			return false
		}
		got := len(g.Triangles())
		want := 0
		for a := int32(0); int(a) < n; a++ {
			for b := a + 1; int(b) < n; b++ {
				for c := b + 1; int(c) < n; c++ {
					if g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(a, c) {
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

func TestBFSDistances(t *testing.T) {
	g := pathGraph(t, 6)
	d := g.BFSDistances(0)
	for i := 0; i < 6; i++ {
		if d[i] != int32(i) {
			t.Fatalf("d[%d]=%d want %d", i, d[i], i)
		}
	}
	// Disconnected vertex.
	g2 := mustGraph(t, 3, []Edge{{0, 1, 1}})
	d2 := g2.BFSDistances(0)
	if d2[2] != -1 {
		t.Fatal("unreachable vertex should be -1")
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
		g, err := FromEdges(n, edges)
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
	a := g.AllPairsShortestPaths()
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
	a := g.AllPairsShortestPaths()
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

// TestBFSDistancesWS checks the workspace-backed variant matches the
// allocating one and that its result releases cleanly.
func TestBFSDistancesWS(t *testing.T) {
	g := pathGraph(t, 9)
	w := ws.Get()
	defer ws.Put(w)
	want := g.BFSDistances(2)
	got := g.BFSDistancesWS(w, 2)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("d[%d]=%d want %d", i, got[i], want[i])
		}
	}
	w.PutInt32(got)
}

// TestAPSPWorkersBitIdentical pins the Dijkstra APSP to the same bits for
// every worker budget: each source's run is sequential, so the partition of
// sources across workers cannot change any distance.
func TestAPSPWorkersBitIdentical(t *testing.T) {
	g := benchGraph(t, 90)
	ctx := context.Background()
	p1 := exec.New(1)
	defer p1.Close()
	a1, err := g.AllPairsShortestPathsCtx(ctx, p1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 7} {
		p := exec.New(workers)
		a, err := g.AllPairsShortestPathsCtx(ctx, p)
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
