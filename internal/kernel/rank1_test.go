package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// TestRank1UpdateMatchesSyrk is the keystone of the streaming engine's
// exactness guarantee: applying Rank1UpdateUpper once per sample, in sample
// order, to a zeroed current-panel accumulator — folding it into the running
// band at every syrkKC boundary, exactly as the engine's fill phase does —
// must reproduce SyrkUpperRange's ascending-panel fold over the same samples
// bit-for-bit.
func TestRank1UpdateMatchesSyrk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct{ n, l int }{
		{1, 3}, {2, 5}, {7, 16}, {13, 64}, {9, syrkKC + 17}, // cross a T-panel
		{5, 2*syrkKC + 3}, // two folds plus a partial panel
	} {
		n, l := tc.n, tc.l
		z := make([]float64, n*l)
		for i := range z {
			z[i] = rng.NormFloat64()
		}
		want := make([]float64, n*n)
		SyrkUpperRange(z, n, l, want, 0, n, 0, l, true)

		folded := make([]float64, n*n)
		cur := make([]float64, n*n)
		panels := 0
		x := make([]float64, n)
		for tt := 0; tt < l; tt++ {
			for i := 0; i < n; i++ {
				x[i] = z[i*l+tt]
			}
			Rank1UpdateUpper(cur, n, x, 0, n)
			if (tt+1)%syrkKC == 0 {
				if panels == 0 {
					copy(folded, cur) // first panel: the chain itself, no 0+x add
				} else {
					AddUpper(folded, cur, n, 0, n)
				}
				panels++
				clear(cur)
			}
		}
		got := folded
		if panels == 0 {
			got = cur // everything within the first panel
		} else if l%syrkKC != 0 {
			AddUpper(got, cur, n, 0, n) // fold the partial panel
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if math.Float64bits(got[i*n+j]) != math.Float64bits(want[i*n+j]) {
					t.Fatalf("n=%d l=%d: (%d,%d) rank-1 %v != syrk %v",
						n, l, i, j, got[i*n+j], want[i*n+j])
				}
			}
		}
	}
}

// TestRank1BandPartitionInvariant verifies that splitting the rows across
// bands (as a parallel caller would) changes no output bit, for both the
// update and the fused roll.
func TestRank1BandPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 23
	base := make([]float64, n*n)
	for i := range base {
		base[i] = rng.NormFloat64()
	}
	xNew := make([]float64, n)
	xOld := make([]float64, n)
	for i := range xNew {
		xNew[i] = rng.NormFloat64()
		xOld[i] = rng.NormFloat64()
	}

	whole := append([]float64(nil), base...)
	Rank1UpdateUpper(whole, n, xNew, 0, n)
	Rank1RollUpper(whole, n, xNew, xOld, 0, n)

	split := append([]float64(nil), base...)
	for _, band := range [][2]int{{0, 1}, {1, 4}, {4, 17}, {17, n}} {
		Rank1UpdateUpper(split, n, xNew, band[0], band[1])
	}
	for i := n - 1; i >= 0; i-- { // reverse band order
		Rank1RollUpper(split, n, xNew, xOld, i, i+1)
	}
	for i := range whole {
		if math.Float64bits(whole[i]) != math.Float64bits(split[i]) {
			t.Fatalf("band partition changes output at %d: %v vs %v", i, whole[i], split[i])
		}
	}
}

// TestRank1RollApproximatesWindow checks the roll against a from-scratch
// recomputation of the slid window: equal to within accumulated rounding.
func TestRank1RollApproximatesWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, w, extra = 9, 12, 30
	samples := make([][]float64, w+extra)
	for k := range samples {
		samples[k] = make([]float64, n)
		for i := range samples[k] {
			samples[k][i] = rng.NormFloat64()
		}
	}
	g := make([]float64, n*n)
	for k := 0; k < w; k++ {
		Rank1UpdateUpper(g, n, samples[k], 0, n)
	}
	for k := w; k < w+extra; k++ {
		Rank1RollUpper(g, n, samples[k], samples[k-w], 0, n)
	}
	// Reference: exact accumulation over the final window only.
	want := make([]float64, n*n)
	for k := extra; k < w+extra; k++ {
		Rank1UpdateUpper(want, n, samples[k], 0, n)
	}
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if d := math.Abs(g[i*n+j] - want[i*n+j]); d > 1e-10 {
				t.Fatalf("(%d,%d): drift %v too large", i, j, d)
			}
		}
	}
}
