package pmfg

import (
	"context"
	"math/rand"
	"testing"

	"pfg/internal/bubbletree"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/matrix"
	"pfg/internal/planarity"
	"pfg/internal/tmfg"
	"pfg/internal/ws"
)

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

func TestBuildBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{3, 4, 5, 10, 30, 60} {
		s := randomSym(rng, n)
		r, err := BuildCtx(context.Background(), exec.Default(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Edges) != 3*n-6 {
			t.Fatalf("n=%d: %d edges, want %d", n, len(r.Edges), 3*n-6)
		}
		if !planarity.Planar(n, r.Edges) {
			t.Fatalf("n=%d: PMFG not planar", n)
		}
		if r.Graph.NumComponentsWithout(nil, nil) != 1 {
			t.Fatalf("n=%d: PMFG not connected", n)
		}
	}
}

func TestBuildRejectsTiny(t *testing.T) {
	if _, err := BuildCtx(context.Background(), exec.Default(), matrix.NewSym(2)); err == nil {
		t.Fatal("n=2 accepted")
	}
}

func TestMaximality(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 16
	s := randomSym(rng, n)
	r, err := BuildCtx(context.Background(), exec.Default(), s)
	if err != nil {
		t.Fatal(err)
	}
	have := map[[2]int32]bool{}
	for _, e := range graph.CanonicalEdges(r.Edges) {
		have[e] = true
	}
	for a := int32(0); int(a) < n; a++ {
		for b := a + 1; int(b) < n; b++ {
			if !have[[2]int32{a, b}] {
				if planarity.Planar(n, append(r.Edges, [2]int32{a, b})) {
					t.Fatalf("PMFG not maximal: (%d,%d) can still be added", a, b)
				}
			}
		}
	}
}

func TestTopEdgeAlwaysIncluded(t *testing.T) {
	// The highest-weight edge is always accepted first.
	rng := rand.New(rand.NewSource(3))
	n := 20
	s := randomSym(rng, n)
	bestU, bestV := int32(0), int32(1)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if s.At(i, j) > s.At(int(bestU), int(bestV)) {
				bestU, bestV = int32(i), int32(j)
			}
		}
	}
	r, err := BuildCtx(context.Background(), exec.Default(), s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Edges[0] != [2]int32{bestU, bestV} {
		t.Fatalf("first accepted edge %v, want (%d,%d)", r.Edges[0], bestU, bestV)
	}
}

func TestPMFGWeightAtLeastTMFG(t *testing.T) {
	// Not guaranteed in theory, but holds overwhelmingly on random data and
	// matches Figure 7's "PMFG ratio ≥ TMFG ratio" shape; we assert the
	// weaker property that PMFG captures at least 95% of TMFG's weight.
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(30)
		s := randomSym(rng, n)
		p, err := BuildCtx(context.Background(), exec.Default(), s)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, s, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.EdgeWeightSum(s) < 0.95*tm.EdgeWeightSum(s) {
			t.Fatalf("PMFG weight %.4f far below TMFG %.4f", p.EdgeWeightSum(s), tm.EdgeWeightSum(s))
		}
	}
}

func TestGenericBubbleTreeOnPMFG(t *testing.T) {
	// The PMFG is maximal planar, so the original bubble tree algorithm
	// must decompose it cleanly — this is the PMFG-DBHT pipeline's input.
	rng := rand.New(rand.NewSource(5))
	n := 40
	s := randomSym(rng, n)
	r, err := BuildCtx(context.Background(), exec.Default(), s)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := bubbletree.BuildGenericCtx(context.Background(), exec.Default(), r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every vertex appears in at least one bubble.
	vb := new(ws.Grouping)
	tree.VertexBubblesInto(nil, vb, n)
	for v := 0; v < n; v++ {
		if len(vb.Group(v)) == 0 {
			t.Fatalf("vertex %d in no bubble", v)
		}
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := randomSym(rng, 25)
	a, err := BuildCtx(context.Background(), exec.Default(), s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCtx(context.Background(), exec.Default(), s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("PMFG not deterministic")
		}
	}
}
