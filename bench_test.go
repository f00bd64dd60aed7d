package pfg

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (cmd/pfg-experiments' usage block lists them), plus
// micro-benchmarks for the substrates.
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure-level benchmarks use the synthetic workloads from internal/tsgen;
// the pretty-table variants of the same experiments live in
// cmd/pfg-experiments.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"pfg/internal/core"
	"pfg/internal/exec"
	"pfg/internal/hac"
	"pfg/internal/kmeans"
	"pfg/internal/matrix"
	"pfg/internal/metrics"
	"pfg/internal/mst"
	"pfg/internal/pmfg"
	"pfg/internal/spectral"
	"pfg/internal/tmfg"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// benchData caches generated workloads across benchmark iterations.
var benchCache = map[string]*benchWorkload{}

type benchWorkload struct {
	ds       *tsgen.Dataset
	sim, dis *matrix.Sym
}

func workload(b *testing.B, name string, n, l, classes int, noise float64) *benchWorkload {
	b.Helper()
	key := fmt.Sprintf("%s-%d-%d-%d-%f", name, n, l, classes, noise)
	if w, ok := benchCache[key]; ok {
		return w
	}
	ds := tsgen.GenerateClassed(name, n, l, classes, noise, 42)
	sim, dis, err := matrix.PearsonDissimWS(context.Background(), exec.Default(), nil, ds.Series)
	if err != nil {
		b.Fatal(err)
	}
	w := &benchWorkload{ds: ds, sim: sim, dis: dis}
	benchCache[key] = w
	return w
}

// benchEnv returns a background context, the default pool at the current
// GOMAXPROCS, and a workspace the benchmark holds until it ends, so its
// timed loop runs on warm scratch.
func benchEnv(b *testing.B) (context.Context, *exec.Pool, *ws.Workspace) {
	w := ws.Get()
	b.Cleanup(func() { ws.Put(w) })
	return context.Background(), exec.Default(), w
}

// --- Figure 1 / Figure 3: per-method runtimes -------------------------------

func BenchmarkFig1_TMFGDBHT_Prefix1(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "ecg", 500, 140, 5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.TMFGDBHTWS(ctx, pool, scratch, w.sim, w.dis, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_TMFGDBHT_Prefix10(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "ecg", 500, 140, 5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.TMFGDBHTWS(ctx, pool, scratch, w.sim, w.dis, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_PMFGDBHT(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "pmfg", 250, 140, 5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.PMFGDBHTWS(ctx, pool, scratch, w.sim, w.dis); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_CompleteLinkage(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "ecg", 500, 140, 5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.HACWS(ctx, pool, scratch, w.sim, w.dis, hac.Complete); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1_AverageLinkage(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "ecg", 500, 140, 5, 0.8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.HACWS(ctx, pool, scratch, w.sim, w.dis, hac.Average); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_KMeans(b *testing.B) {
	ctx, pool := context.Background(), exec.Default()
	w := workload(b, "ecg", 500, 140, 5, 0.8)
	opts := kmeans.Options{K: w.ds.NumClasses, Seed: 1, Scalable: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := kmeans.RunCtx(ctx, pool, w.ds.Series, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_KMeansSpectral(b *testing.B) {
	ctx, pool := context.Background(), exec.Default()
	w := workload(b, "ecg", 500, 140, 5, 0.8)
	k := w.ds.NumClasses
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		emb, err := spectral.EmbedCtx(ctx, pool, w.ds.Series, spectral.Options{Neighbors: 50, Components: k, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := kmeans.RunCtx(ctx, pool, emb, kmeans.Options{K: k, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 4: thread scaling by prefix (vary GOMAXPROCS externally or use
// the sub-benchmarks below, which sweep worker counts) -----------------------

func BenchmarkFig4_ThreadScaling(b *testing.B) {
	w := workload(b, "crop", 1500, 46, 24, 1.0)
	for _, prefix := range []int{1, 10, 50, 200} {
		for _, threads := range []int{1, 4, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("prefix=%d/threads=%d", prefix, threads), func(b *testing.B) {
				old := runtime.GOMAXPROCS(threads)
				defer runtime.GOMAXPROCS(old)
				ctx, pool, scratch := benchEnv(b)
				for i := 0; i < b.N; i++ {
					if _, err := core.TMFGDBHTWS(ctx, pool, scratch, w.sim, w.dis, prefix); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- Figure 5: stage breakdown (per-stage timers are asserted in unit tests;
// this bench exposes the stages as sub-benchmarks) ---------------------------

func BenchmarkFig5_TMFGOnly(b *testing.B) {
	w := workload(b, "ecg", 800, 140, 5, 0.8)
	for _, prefix := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			ctx, pool, scratch := benchEnv(b)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := tmfg.BuildWS(ctx, pool, scratch, w.sim, prefix); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig5_APSP(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "ecg", 800, 140, 5, 0.8)
	tm, err := tmfg.BuildWS(ctx, pool, nil, w.sim, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tm.Graph.AllPairsShortestPathsWS(ctx, pool, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figures 6/7: quality and edge-weight ratio by prefix -------------------

func BenchmarkFig6_QualityByPrefix(b *testing.B) {
	w := workload(b, "quality", 600, 96, 8, 0.5)
	for _, prefix := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			ctx, pool, scratch := benchEnv(b)
			var lastARI float64
			for i := 0; i < b.N; i++ {
				r, err := core.TMFGDBHTWS(ctx, pool, scratch, w.sim, w.dis, prefix)
				if err != nil {
					b.Fatal(err)
				}
				labels, err := r.CutLabels(w.ds.NumClasses)
				if err != nil {
					b.Fatal(err)
				}
				lastARI, _ = metrics.ARI(w.ds.Labels, labels)
			}
			b.ReportMetric(lastARI, "ARI")
		})
	}
}

func BenchmarkFig7_EdgeWeight(b *testing.B) {
	w := workload(b, "quality", 600, 96, 8, 0.5)
	exact, err := tmfg.BuildWS(context.Background(), exec.Default(), nil, w.sim, 1)
	if err != nil {
		b.Fatal(err)
	}
	base := exact.EdgeWeightSum(w.sim)
	for _, prefix := range []int{10, 50, 200} {
		b.Run(fmt.Sprintf("prefix=%d", prefix), func(b *testing.B) {
			ctx, pool, scratch := benchEnv(b)
			var ratio float64
			for i := 0; i < b.N; i++ {
				r, err := tmfg.BuildWS(ctx, pool, scratch, w.sim, prefix)
				if err != nil {
					b.Fatal(err)
				}
				ratio = r.EdgeWeightSum(w.sim) / base
			}
			b.ReportMetric(ratio, "weight-ratio")
		})
	}
}

// --- Figure 10: stock pipeline ----------------------------------------------

func BenchmarkFig10_StockPipeline(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	sd := tsgen.GenerateStocks(400, 300, 3)
	sim, dis, err := matrix.PearsonDissimWS(ctx, pool, nil, sd.Returns)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.TMFGDBHTWS(ctx, pool, scratch, sim, dis, 30)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.CutLabels(len(tsgen.SectorNames)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkMicro_Pearson(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	ds := tsgen.GenerateClassed("micro", 1000, 128, 4, 0.5, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := matrix.PearsonWS(ctx, pool, scratch, ds.Series); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_TMFGBuild(b *testing.B) {
	for _, n := range []int{500, 2000} {
		for _, prefix := range []int{1, 50} {
			b.Run(fmt.Sprintf("n=%d/prefix=%d", n, prefix), func(b *testing.B) {
				ctx, pool, scratch := benchEnv(b)
				rng := rand.New(rand.NewSource(1))
				s := matrix.NewSym(n)
				for i := 0; i < n; i++ {
					s.Set(i, i, 1)
					for j := i + 1; j < n; j++ {
						s.Set(i, j, rng.Float64())
					}
				}
				b.ResetTimer()
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := tmfg.BuildWS(ctx, pool, scratch, s, prefix); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkMicro_PMFGBuild(b *testing.B) {
	ctx, pool := context.Background(), exec.Default()
	rng := rand.New(rand.NewSource(1))
	n := 200
	s := matrix.NewSym(n)
	for i := 0; i < n; i++ {
		s.Set(i, i, 1)
		for j := i + 1; j < n; j++ {
			s.Set(i, j, rng.Float64())
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pmfg.BuildCtx(ctx, pool, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_HACComplete(b *testing.B) {
	ctx, pool, scratch := benchEnv(b)
	w := workload(b, "micro", 1000, 64, 4, 0.5)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.HACWS(ctx, pool, scratch, w.sim, w.dis, hac.Complete); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_APSPByGraphSize(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ctx, pool, scratch := benchEnv(b)
			rng := rand.New(rand.NewSource(1))
			s := matrix.NewSym(n)
			for i := 0; i < n; i++ {
				s.Set(i, i, 1)
				for j := i + 1; j < n; j++ {
					s.Set(i, j, rng.Float64())
				}
			}
			tm, err := tmfg.BuildWS(ctx, pool, nil, s, 50)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tm.Graph.AllPairsShortestPathsWS(ctx, pool, scratch); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMicro_ARI(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 100000
	x := make([]int, n)
	y := make([]int, n)
	for i := range x {
		x[i] = rng.Intn(20)
		y[i] = rng.Intn(20)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.ARI(x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMicro_MSTSingleLinkage(b *testing.B) {
	w := workload(b, "micro", 1000, 64, 4, 0.5)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mst.SingleLinkage(w.dis); err != nil {
			b.Fatal(err)
		}
	}
}
