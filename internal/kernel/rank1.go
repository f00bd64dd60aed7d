package kernel

// Rank1UpdateUpper adds the outer product x·xᵀ to rows [i0, i1) of the upper
// triangle (j ≥ i) of the n×n accumulator g: g[i][j] += x[i]·x[j]. Each entry
// receives exactly one multiply and one add — the same operation the SYRK
// performs for one time step of its ascending-t accumulation — so a sequence
// of Rank1UpdateUpper calls applied in sample order to a zeroed g reproduces
// one panel's partial sum of SyrkUpperRange bit-for-bit (the streaming engine
// folds such per-panel chains at PanelLen boundaries to match the full panel
// fold; see PanelLen). Entries outside the band's upper triangle are
// untouched, and distinct bands touch disjoint rows, so callers may
// parallelize over bands freely without changing any output bit.
func Rank1UpdateUpper(g []float64, n int, x []float64, i0, i1 int) {
	for i := i0; i < i1; i++ {
		xi := x[i]
		row := g[i*n : (i+1)*n : (i+1)*n]
		if useAVX2 && n-i >= 8 {
			q := (n - i) &^ 3
			rank1UpdSeg(&row[i], &x[i], xi, q)
			for j := i + q; j < n; j++ {
				row[j] += xi * x[j]
			}
			continue
		}
		rank1UpdateRowGo(row, x, xi, i, n)
	}
}

// rank1UpdateRowGo is the scalar row body of Rank1UpdateUpper (and its
// bit-equality oracle).
func rank1UpdateRowGo(row, x []float64, xi float64, i, n int) {
	j := i
	for ; j+4 <= n; j += 4 {
		row[j] += xi * x[j]
		row[j+1] += xi * x[j+1]
		row[j+2] += xi * x[j+2]
		row[j+3] += xi * x[j+3]
	}
	for ; j < n; j++ {
		row[j] += xi * x[j]
	}
}

// Rank1RollUpper slides the moment band by one sample in a single traversal:
// g[i][j] += xNew[i]·xNew[j] − xOld[i]·xOld[j] over rows [i0, i1) of the
// upper triangle. This is the steady-state O(n²) tick of the streaming
// engine (update + downdate fused so the band is read and written once). The
// downdate is where float drift enters — subtracting a term is not the exact
// inverse of having added it — which is why streaming callers periodically
// rebuild the band exactly with SyrkUpperRange. Like Rank1UpdateUpper, each
// entry is updated by a fixed operation sequence, so the result is
// independent of how callers partition the rows into bands.
func Rank1RollUpper(g []float64, n int, xNew, xOld []float64, i0, i1 int) {
	for i := i0; i < i1; i++ {
		a, b := xNew[i], xOld[i]
		row := g[i*n : (i+1)*n : (i+1)*n]
		if useAVX2 && n-i >= 8 {
			q := (n - i) &^ 3
			rank1RollSeg(&row[i], &xNew[i], &xOld[i], a, b, q)
			for j := i + q; j < n; j++ {
				row[j] += a*xNew[j] - b*xOld[j]
			}
			continue
		}
		rank1RollRowGo(row, xNew, xOld, a, b, i, n)
	}
}

// rank1RollRowGo is the scalar row body of Rank1RollUpper (and its
// bit-equality oracle).
func rank1RollRowGo(row, xNew, xOld []float64, a, b float64, i, n int) {
	j := i
	for ; j+4 <= n; j += 4 {
		row[j] += a*xNew[j] - b*xOld[j]
		row[j+1] += a*xNew[j+1] - b*xOld[j+1]
		row[j+2] += a*xNew[j+2] - b*xOld[j+2]
		row[j+3] += a*xNew[j+3] - b*xOld[j+3]
	}
	for ; j < n; j++ {
		row[j] += a*xNew[j] - b*xOld[j]
	}
}
