package graph

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/ws"
)

// benchGraph builds a deterministic sparse graph with ~3n edges (each vertex
// connects to the next three), the edge density of a TMFG (3n−6), with
// positive dissimilarity-like weights. This mirrors the APSP workload inside
// DBHT without importing the tmfg package (which depends on graph). Shared
// with TestAPSPWorkersBitIdentical so the determinism test pins the same
// workload the benchmark measures.
func benchGraph(tb testing.TB, n int) *Graph {
	tb.Helper()
	rng := rand.New(rand.NewSource(int64(n)))
	edges := make([]Edge, 0, 3*n)
	for i := 0; i < n; i++ {
		for d := 1; d <= 3; d++ {
			if j := i + d; j < n {
				edges = append(edges, Edge{U: int32(i), V: int32(j), W: 0.05 + rng.Float64()})
			}
		}
	}
	g, err := FromEdgesWS(nil, n, edges)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkAPSP measures the all-pairs shortest paths (eight-source
// relaxation sweeps spread over the pool; the DBHT stage the paper
// identifies as the bottleneck) at TMFG-like edge density.
func BenchmarkAPSP(b *testing.B) {
	for _, n := range []int{128, 512, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := benchGraph(b, n)
			ctx, pool := context.Background(), exec.Default()
			w := ws.Get()
			defer ws.Put(w)
			// Warm-up so b.N iterations run on a warm workspace.
			if _, err := g.AllPairsShortestPathsWS(ctx, pool, w); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.AllPairsShortestPathsWS(ctx, pool, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
