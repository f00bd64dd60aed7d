package pfg

// Determinism tests for the flat-memory refactor: the bubble enumeration
// and the final clustering must be identical whether the pipeline runs
// sequentially (Workers:1) or on a pooled multi-worker schedule, and
// repeated pooled runs must not be perturbed by recycled workspace state.

import (
	"context"
	"fmt"
	"testing"

	"pfg/internal/bubbletree"
	"pfg/internal/exec"
	"pfg/internal/matrix"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

func treeFingerprint(t *bubbletree.Tree) string {
	s := fmt.Sprintf("root=%d;", t.Root)
	for i := range t.Nodes {
		n := &t.Nodes[i]
		s += fmt.Sprintf("%d:v=%v,sep=%v,p=%d,c=%v;", i, n.Vertices, n.Sep, n.Parent, n.Children)
	}
	return s
}

// TestBubbleEnumerationDeterminism checks that TMFG bubble-tree
// construction — nodes, separating triangles, parent/child structure, and
// the per-vertex bubble lists — is identical between a Workers:1 run and
// pooled runs, including repeated pooled runs on warm workspaces.
func TestBubbleEnumerationDeterminism(t *testing.T) {
	ds := tsgen.GenerateClassed("determinism", 150, 64, 5, 0.7, 11)
	ctx := context.Background()
	sim, err := matrix.PearsonWS(ctx, exec.Default(), nil, ds.Series)
	if err != nil {
		t.Fatal(err)
	}
	w := ws.Get()
	defer ws.Put(w)
	for _, prefix := range []int{1, 10} {
		seq := exec.New(1)
		rSeq, err := tmfg.BuildWS(ctx, seq, nil, sim, prefix)
		seq.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := treeFingerprint(rSeq.Tree)
		wantVB := fmt.Sprint(rSeq.Tree.VertexBubbles(sim.N))
		for trial := 0; trial < 3; trial++ {
			rPar, err := tmfg.BuildWS(ctx, exec.Default(), w, sim, prefix) // default pool, warm workspace
			if err != nil {
				t.Fatal(err)
			}
			if got := treeFingerprint(rPar.Tree); got != want {
				t.Fatalf("prefix=%d trial=%d: pooled bubble tree differs from Workers:1", prefix, trial)
			}
			if got := fmt.Sprint(rPar.Tree.VertexBubbles(sim.N)); got != wantVB {
				t.Fatalf("prefix=%d trial=%d: pooled vertex-bubble lists differ", prefix, trial)
			}
			if len(rPar.Edges) != len(rSeq.Edges) {
				t.Fatalf("prefix=%d: edge count differs", prefix)
			}
			for i := range rPar.Edges {
				if rPar.Edges[i] != rSeq.Edges[i] {
					t.Fatalf("prefix=%d: edge %d differs: %v vs %v", prefix, i, rPar.Edges[i], rSeq.Edges[i])
				}
			}
			// The next trial builds on this trial's recycled CSR arrays.
			rPar.Graph.Release(w)
		}
	}
}

// TestClusterLabelsDeterminism checks end-to-end that Cut(k) labels from a
// Workers:1 run match pooled runs exactly, for both the paper pipeline and
// the HAC baseline.
func TestClusterLabelsDeterminism(t *testing.T) {
	ds := tsgen.GenerateClassed("determinism-e2e", 120, 64, 4, 0.7, 13)
	for _, method := range []Method{TMFGDBHT, CompleteLinkage} {
		rSeq, err := Cluster(ds.Series, Options{Method: method, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantLabels, err := rSeq.Cut(4)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			rPar, err := Cluster(ds.Series, Options{Method: method}) // pooled
			if err != nil {
				t.Fatal(err)
			}
			if len(rPar.Dendrogram.Merges) != len(rSeq.Dendrogram.Merges) {
				t.Fatalf("%v trial %d: merge count differs", method, trial)
			}
			for i := range rPar.Dendrogram.Merges {
				if rPar.Dendrogram.Merges[i] != rSeq.Dendrogram.Merges[i] {
					t.Fatalf("%v trial %d: merge %d differs: %+v vs %+v",
						method, trial, i, rPar.Dendrogram.Merges[i], rSeq.Dendrogram.Merges[i])
				}
			}
			gotLabels, err := rPar.Cut(4)
			if err != nil {
				t.Fatal(err)
			}
			for i := range gotLabels {
				if gotLabels[i] != wantLabels[i] {
					t.Fatalf("%v trial %d: label[%d] = %d, want %d", method, trial, i, gotLabels[i], wantLabels[i])
				}
			}
		}
	}
}
