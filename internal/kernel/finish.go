package kernel

import "math"

// finishB is the tile edge of the blocked Pearson finish pass. A 64×64
// float64 tile is 32KB per matrix — the transposed writes of the mirror stay
// within one L1-resident tile column instead of striding the full matrix.
const finishB = 64

// MomentVarEps is the relative zero-variance threshold of the moments
// pipeline: a series whose centered sum of squares q − s²/T is at or below
// MomentVarEps·q is treated as constant. The raw-moment subtraction cancels
// catastrophically for constant (and near-constant) series, leaving a
// residual of order ulp(q) that can land on either side of zero, so an exact
// ==0 test would misclassify most constant series; a relative threshold
// absorbs the cancellation noise while leaving any genuinely varying series
// (variance above ~1e-13 of its raw second moment) untouched.
const MomentVarEps = 1e-13

// FinishTiles returns the number of tile rows the finish pass partitions an
// n×n matrix into; callers parallelize FinishPearsonMoments over
// [0, FinishTiles).
func FinishTiles(n int) int { return (n + finishB - 1) / finishB }

// PrepPearsonMoments derives the per-series finishing coefficients from raw
// moments: g holds the upper-triangle cross products Σₜ xᵢ(t)·xⱼ(t) (only the
// diagonal Σ xᵢ² is read here) and s the per-series rolling sums Σₜ xᵢ(t)
// over t samples. For each series it writes the mean mu[i] = s[i]/t, the
// inverse centered norm inv[i] = 1/√(g[i][i] − s[i]·mu[i]), and the
// zero-variance flag (see MomentVarEps). The arithmetic is a fixed sequence
// of scalar operations per series, so batch and streaming callers that share
// bit-identical moments obtain bit-identical coefficients.
//
// The return value is the index of the first series whose moments are
// non-finite (overflowed or poisoned sums), or -1 when all are usable;
// flagged series are pinned as zero-variance so the pairwise pass stays
// finite even if the caller chooses not to fail.
func PrepPearsonMoments(g []float64, n int, s []float64, t int, mu, inv []float64, zero []int32) int {
	invT := 1 / float64(t)
	bad := -1
	for i := 0; i < n; i++ {
		q := g[i*n+i]
		si := s[i]
		if math.IsNaN(q) || math.IsInf(q, 0) || math.IsNaN(si) || math.IsInf(si, 0) {
			if bad < 0 {
				bad = i
			}
			mu[i], inv[i], zero[i] = 0, 0, 1
			continue
		}
		m := si * invT
		mu[i] = m
		v := q - si*m
		if v <= MomentVarEps*q {
			inv[i], zero[i] = 0, 1
		} else {
			inv[i], zero[i] = 1/math.Sqrt(v), 0
		}
	}
	return bad
}

// FinishPearsonMoments turns the raw upper-triangle cross products produced
// by SyrkUpperRange (or maintained incrementally by the streaming engine) into
// the final correlation matrix, processing tile rows [b0, b1): each entry
// becomes p = (g[i][j] − s[i]·mu[j]) · inv[i] · inv[j], the diagonal is
// pinned to 1, entries involving a zero-variance series (zero != 0) are
// pinned to 0, everything else is clamped to [-1, 1] (a NaN from overflowed
// cross terms is pinned to 0), and each finished value is mirrored into the
// lower triangle.
//
// Distinct tile rows touch disjoint entries (tile row b owns the upper tiles
// of rows [b·B, b·B+B) and their mirror images), so callers may run tile rows
// on different workers. The transform is elementwise with a fixed operation
// order per entry, hence bit-deterministic in the partitioning.
func FinishPearsonMoments(sim []float64, n int, s, mu, inv []float64, zero []int32, b0, b1 int) {
	for bi := b0; bi < b1; bi++ {
		i0 := bi * finishB
		i1 := min(i0+finishB, n)
		for j0 := i0; j0 < n; j0 += finishB {
			j1 := min(j0+finishB, n)
			for i := i0; i < i1; i++ {
				row := sim[i*n : (i+1)*n]
				js := j0
				if js <= i {
					// Diagonal tile: handle the diagonal entry, then the
					// strictly-upper remainder of the row.
					row[i] = 1
					js = i + 1
				}
				if zero[i] != 0 {
					for j := js; j < j1; j++ {
						row[j] = 0
						sim[j*n+i] = 0
					}
					continue
				}
				si, invi := s[i], inv[i]
				if useAVX2 && j1-js >= 8 {
					q := (j1 - js) &^ 3
					finishRowAVX2(sim, n, si, invi, mu, inv, zero, i, js, q)
					finishRowGo(sim, n, si, invi, mu, inv, zero, i, js+q, j1)
					continue
				}
				finishRowGo(sim, n, si, invi, mu, inv, zero, i, js, j1)
			}
		}
	}
}

// finishRowGo is the scalar per-entry finish transform over columns [js, j1)
// of row i — the oracle the vector backend is pinned to bit-for-bit. The
// transform is elementwise (no accumulation chain), so any column
// partitioning produces identical bits.
func finishRowGo(sim []float64, n int, si, invi float64, mu, inv []float64, zero []int32, i, js, j1 int) {
	row := sim[i*n : (i+1)*n]
	for j := js; j < j1; j++ {
		p := (row[j] - si*mu[j]) * invi * inv[j]
		switch {
		case zero[j] != 0:
			p = 0
		case p > 1:
			p = 1
		case p < -1:
			p = -1
		case p != p: // NaN from overflowed cross products
			p = 0
		}
		row[j] = p
		sim[j*n+i] = p
	}
}
