package dbht

import (
	"context"
	"math"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/matrix"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
)

// TestAPSPMatchesDijkstraOnTMFG runs the APSP equivalence check on the
// graphs DBHT actually sees: Mallat TMFGs re-weighted with dissimilarities.
// Every entry must equal a per-source Graph.Dijkstra bit for bit, for one
// worker and for two.
func TestAPSPMatchesDijkstraOnTMFG(t *testing.T) {
	for _, n := range []int{64, 256} {
		ds := tsgen.Generate(tsgen.Catalog()[0], n, 256, 1)
		sim, err := matrix.PearsonWS(context.Background(), exec.Default(), nil, ds.Series)
		if err != nil {
			t.Fatal(err)
		}
		dis := dissimilarity(sim)
		for _, prefix := range []int{1, 10} {
			tr, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, sim, prefix)
			if err != nil {
				t.Fatal(err)
			}
			dg := tr.Graph.WithWeights(nil, func(u, v int32) float64 { return dis.At(int(u), int(v)) })
			want := make([]float64, 0, n*n)
			for src := int32(0); int(src) < n; src++ {
				want = append(want, dg.Dijkstra(src, nil)...)
			}
			for _, workers := range []int{1, 2} {
				pool := exec.New(workers)
				a, err := dg.AllPairsShortestPathsWS(context.Background(), pool, nil)
				pool.Close()
				if err != nil {
					t.Fatal(err)
				}
				for i, d := range a.Dist {
					if math.Float64bits(d) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d prefix=%d workers=%d: dist(%d,%d) = %v, Dijkstra %v", n, prefix, workers, i/n, i%n, d, want[i])
					}
				}
			}
		}
	}
}
