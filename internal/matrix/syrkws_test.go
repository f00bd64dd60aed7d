package matrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// TestSyrkUpperWSWorkersBitIdentical pins the panel-parallel SYRK's
// determinism contract: the band is bit-identical across worker budgets —
// the per-panel private accumulators fold in ascending panel order
// regardless of which worker finished first — and across both internal
// strategies (row-banded vs T-panel waves), all equal to the single-call
// kernel result.
func TestSyrkUpperWSWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ n, l int }{
		{17, 2*kernel.PanelLen + 37}, // wave path: n < 1024, multiple panels
		{17, kernel.PanelLen / 2},    // single panel: degenerate wave
		{33, 4 * kernel.PanelLen},    // more panels than a small worker count
	} {
		n, l := tc.n, tc.l
		z := make([]float64, n*l)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		want := make([]float64, n*n)
		kernel.SyrkUpperRange(z, n, l, want, 0, n, 0, l, true)

		for _, workers := range []int{1, 2, 3, 8} {
			pool := exec.New(workers)
			got := make([]float64, n*n)
			w := ws.New()
			if err := SyrkUpperWS(context.Background(), pool, w, z, n, l, l, got); err != nil {
				pool.Close()
				t.Fatal(err)
			}
			pool.Close()
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					if math.Float64bits(got[i*n+j]) != math.Float64bits(want[i*n+j]) {
						t.Fatalf("n=%d l=%d workers=%d: (%d,%d) %v != %v",
							n, l, workers, i, j, got[i*n+j], want[i*n+j])
					}
				}
			}
		}
	}
}

// BenchmarkSyrkParallel sweeps the panel-parallel SYRK across worker
// budgets at the acceptance shape (n=512, T=4096 → 8 KC-panels, so
// Workers:8 assigns one panel per worker) and at the streaming moment
// rebuild's shape (n=256, T=2048 → 4 panels: two waves of two on two
// workers). On multi-core hosts the sweep measures parallel wall-clock
// scaling; on a single-core host (like the CI bench smoke) the Workers>1
// entries measure the private-band fold overhead instead.
func BenchmarkSyrkParallel(b *testing.B) {
	for _, sh := range []struct{ n, l int }{{512, 4096}, {256, 2048}} {
		benchSyrkParallel(b, sh.n, sh.l)
	}
}

func benchSyrkParallel(b *testing.B, n, l int) {
	z := make([]float64, n*l)
	rng := rand.New(rand.NewSource(42))
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	bytes := int64(n) * int64(n) / 2 * int64(l) * 8
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d/T=%d/workers=%d", n, l, workers), func(b *testing.B) {
			pool := exec.New(workers)
			defer pool.Close()
			w := ws.New()
			c := make([]float64, n*n)
			// Warm-up allocates the private panel bands once.
			if err := SyrkUpperWS(context.Background(), pool, w, z, n, l, l, c); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := SyrkUpperWS(context.Background(), pool, w, z, n, l, l, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
