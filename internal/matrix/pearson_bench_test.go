package matrix

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/ws"
)

// BenchmarkPearson guards the blocked correlation kernel (the hot loop of
// the pipeline's first stage) across series lengths: T=256 is compute-light
// (the O(n²) finish pass matters), T=4096 is a pure Z·Zᵀ stress where the
// register tiling's data reuse dominates.
func BenchmarkPearson(b *testing.B) {
	const n = 512
	for _, l := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d/T=%d", n, l), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			series := make([][]float64, n)
			for i := range series {
				s := make([]float64, l)
				for t := range s {
					s[t] = rng.NormFloat64()
				}
				series[i] = s
			}
			ctx, pool := context.Background(), exec.Default()
			w := ws.Get()
			defer ws.Put(w)
			// Warm-up so b.N iterations run on a warm workspace.
			if _, err := PearsonWS(ctx, pool, w, series); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n * n / 2 * l * 8))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PearsonWS(ctx, pool, w, series); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPearsonMatchesScalarReference pins the blocked SYRK path to the naive
// scalar implementation: normalize, sequential dot products, clamp. The
// kernel accumulates in the same ascending-t order, so entries must agree to
// well within 1e-12 (they are in fact bit-identical).
func TestPearsonMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, l int }{{1, 2}, {2, 5}, {3, 7}, {7, 33}, {17, 64}, {64, 96}, {65, 100}} {
		series := make([][]float64, tc.n)
		for i := range series {
			s := make([]float64, tc.l)
			for t2 := range s {
				s[t2] = rng.NormFloat64()
			}
			series[i] = s
		}
		m, err := pearson(series)
		if err != nil {
			t.Fatal(err)
		}
		// Scalar reference.
		z := make([][]float64, tc.n)
		for i, s := range series {
			mean := 0.0
			for _, v := range s {
				mean += v
			}
			mean /= float64(tc.l)
			ss := 0.0
			zi := make([]float64, tc.l)
			for t2, v := range s {
				zi[t2] = v - mean
				ss += zi[t2] * zi[t2]
			}
			inv := 1 / math.Sqrt(ss)
			for t2 := range zi {
				zi[t2] *= inv
			}
			z[i] = zi
		}
		for i := 0; i < tc.n; i++ {
			for j := 0; j < tc.n; j++ {
				want := 0.0
				for t2 := 0; t2 < tc.l; t2++ {
					want += z[i][t2] * z[j][t2]
				}
				if want > 1 {
					want = 1
				} else if want < -1 {
					want = -1
				}
				if i == j {
					want = 1
				}
				if diff := math.Abs(m.At(i, j) - want); diff > 1e-12 {
					t.Fatalf("n=%d l=%d: p(%d,%d)=%v, scalar %v (|Δ|=%g)", tc.n, tc.l, i, j, m.At(i, j), want, diff)
				}
			}
		}
	}
}
