package kernel

// CorrDriftRows measures how far the correlation matrix implied by the raw
// moments has drifted from a finished reference matrix, over matrix rows
// [lo, hi): it returns max over i∈[lo,hi), j>i of |p(i,j) − ref[i][j]|, where
// p(i,j) is derived from the upper-triangle cross-product band g, the rolling
// sums s, and the PrepPearsonMoments coefficients (mu, inv, zero) with the
// exact arithmetic of FinishPearsonMoments — the same clamps, zero-variance
// pinning, and NaN handling — so a zero drift against a matrix finished from
// bit-identical moments is exact, not approximate. A NaN difference (from a
// NaN reference entry) never raises the maximum.
//
// Unlike the finish pass, nothing is materialized: the band is read once per
// entry, no writes or mirrors happen, so the scan runs at the memory
// bandwidth of the band + reference rather than the cost of producing two
// full matrices. The incremental clustering layer runs it every tick to gate
// the drift-bounded serve path. Distinct rows touch disjoint data, so callers
// may split [0, n) across workers; the row maxima are order-insensitive,
// which is also why the AVX2 backend (lanes across columns, a running
// maximum per lane) returns the scalar core's bits exactly.
func CorrDriftRows(g []float64, n int, s, mu, inv []float64, zero []int32, ref []float64, lo, hi int) float64 {
	drift := 0.0
	for i := lo; i < hi; i++ {
		row := g[i*n : (i+1)*n]
		refRow := ref[i*n : (i+1)*n]
		if zero[i] != 0 {
			drift = driftZeroRowGo(refRow, i+1, drift)
			continue
		}
		js := i + 1
		if useAVX2 && n-js >= 8 {
			q := (n - js) &^ 3
			drift = driftSeg(&row[js], &refRow[js], &mu[js], &inv[js], &zero[js], s[i], inv[i], drift, q)
			js += q
		}
		drift = driftRowGo(row, refRow, mu, inv, zero, s[i], inv[i], js, drift)
	}
	return drift
}

// driftZeroRowGo folds |ref[j]| for j ∈ [js, len(refRow)) into drift: the
// finish pins a zero-variance row's correlations to 0.
func driftZeroRowGo(refRow []float64, js int, drift float64) float64 {
	for _, d := range refRow[js:] {
		if d < 0 {
			if -d > drift {
				drift = -d
			}
		} else if d > drift {
			drift = d
		}
	}
	return drift
}

// driftRowGo is the scalar drift scan over columns [js, len(row)) of one
// row with nonzero variance, folded into drift — the oracle the vector
// backend is pinned to bit for bit.
func driftRowGo(row, refRow, mu, inv []float64, zero []int32, si, invi float64, js int, drift float64) float64 {
	n := len(row)
	// Two independent accumulator lanes keep the compare chains short;
	// max is order-insensitive so the lane merge is exact.
	d0, d1 := drift, 0.0
	j := js
	for ; j+2 <= n; j += 2 {
		p0 := finishEntry(row[j], si, mu[j], invi, inv[j], zero[j])
		p1 := finishEntry(row[j+1], si, mu[j+1], invi, inv[j+1], zero[j+1])
		if d := p0 - refRow[j]; d < 0 {
			if -d > d0 {
				d0 = -d
			}
		} else if d > d0 {
			d0 = d
		}
		if d := p1 - refRow[j+1]; d < 0 {
			if -d > d1 {
				d1 = -d
			}
		} else if d > d1 {
			d1 = d
		}
	}
	for ; j < n; j++ {
		p := finishEntry(row[j], si, mu[j], invi, inv[j], zero[j])
		if d := p - refRow[j]; d < 0 {
			if -d > d0 {
				d0 = -d
			}
		} else if d > d0 {
			d0 = d
		}
	}
	if d1 > d0 {
		d0 = d1
	}
	return d0
}

// finishEntry is one off-diagonal correlation entry of the moment finish:
// the FinishPearsonMoments per-entry arithmetic (raw-moment centering,
// zero-variance pinning, [-1,1] clamp, NaN→0) as a scalar helper.
func finishEntry(gij, si, muj, invi, invj float64, zeroj int32) float64 {
	p := (gij - si*muj) * invi * invj
	switch {
	case zeroj != 0:
		p = 0
	case p > 1:
		p = 1
	case p < -1:
		p = -1
	case p != p:
		p = 0
	}
	return p
}
