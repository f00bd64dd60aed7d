package kernel

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestCorrDriftRows pins the drift scan to the finish arithmetic: against a
// reference finished from the same moments the drift is exactly zero, and
// against a perturbed reference it reproduces the naive entrywise maximum.
func TestCorrDriftRows(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const l = 24
	for _, n := range []int{1, 2, 3, 7, 32, 65} {
		raw, s := momentsFixture(rng, n, l)
		mu := make([]float64, n)
		inv := make([]float64, n)
		zero := make([]int32, n)
		if bad := PrepPearsonMoments(raw, n, s, l, mu, inv, zero); bad != -1 {
			t.Fatalf("n=%d: finite moments flagged bad at %d", n, bad)
		}
		ref := append([]float64(nil), raw...)
		FinishPearsonMoments(ref, nil, n, s, mu, inv, zero, 0, FinishTiles(n))

		if d := CorrDriftRows(raw, n, s, mu, inv, zero, ref, 0, n); d != 0 {
			t.Fatalf("n=%d: drift against own finish = %v, want exactly 0", n, d)
		}

		// Perturb the reference and compare with the naive scan.
		pert := append([]float64(nil), ref...)
		for k := 0; k < n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			pert[i*n+j] += rng.NormFloat64() * 0.01
		}
		want := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if d := math.Abs(ref[i*n+j] - pert[i*n+j]); d > want {
					want = d
				}
			}
		}
		if got := CorrDriftRows(raw, n, s, mu, inv, zero, pert, 0, n); got != want {
			t.Fatalf("n=%d: drift=%v want %v", n, got, want)
		}

		// Row-partition invariance: max over disjoint row blocks merges to
		// the same value.
		merged := 0.0
		for i := 0; i < n; i++ {
			if d := CorrDriftRows(raw, n, s, mu, inv, zero, pert, i, i+1); d > merged {
				merged = d
			}
		}
		if merged != want {
			t.Fatalf("n=%d: per-row partition drift=%v want %v", n, merged, want)
		}
	}
}

// BenchmarkCorrDriftRows times one full drift-gate scan, the dispatched
// kernel against the scalar core, at the serving shape (n=256) and a larger
// universe.
func BenchmarkCorrDriftRows(b *testing.B) {
	for _, n := range []int{256, 1024} {
		raw, s, ref := driftFixture(rand.New(rand.NewSource(3)), n, 0)
		mu, inv, zero := make([]float64, n), make([]float64, n), make([]int32, n)
		PrepPearsonMoments(raw, n, s, 24, mu, inv, zero)
		for _, side := range []struct {
			name string
			scan func(g []float64, n int, s, mu, inv []float64, zero []int32, ref []float64, lo, hi int) float64
		}{{"dispatched", CorrDriftRows}, {"scalar", corrDriftRowsGo}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, side.name), func(b *testing.B) {
				b.SetBytes(int64(n * (n - 1) / 2 * 16)) // band + reference entries read
				for b.Loop() {
					side.scan(raw, n, s, mu, inv, zero, ref, 0, n)
				}
			})
		}
	}
}
