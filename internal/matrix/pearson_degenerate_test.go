package matrix

import (
	"math"
	"strings"
	"testing"
)

// TestPearsonZeroVariancePinned pins the defined behavior for zero-variance
// (constant) series: they correlate 0 with every other series and 1 with
// themselves, and never produce NaN — so dissimilarities and TMFG gains
// downstream stay finite.
func TestPearsonZeroVariancePinned(t *testing.T) {
	series := [][]float64{
		{1, 2, 3, 4},
		{5, 5, 5, 5}, // constant: zero variance
		{4, 3, 2, 1},
		{0, 0, 0, 0}, // constant at zero
	}
	m, err := pearson(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			v := m.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("corr(%d,%d) = %v: zero-variance row leaked a non-finite value", i, j, v)
			}
		}
	}
	// Diagonal is 1 even for constant series.
	for i := 0; i < m.N; i++ {
		if m.At(i, i) != 1 {
			t.Fatalf("corr(%d,%d) = %v, want 1", i, i, m.At(i, i))
		}
	}
	// Constant series correlate 0 with everything else, including each other.
	for _, pair := range [][2]int{{1, 0}, {1, 2}, {1, 3}, {3, 0}, {3, 2}} {
		if v := m.At(pair[0], pair[1]); v != 0 {
			t.Fatalf("corr%v = %v, want 0 (zero-variance row)", pair, v)
		}
	}
	// Perfectly anti-correlated pair still works.
	if v := m.At(0, 2); math.Abs(v+1) > 1e-12 {
		t.Fatalf("corr(0,2) = %v, want -1", v)
	}
	// Dissimilarity stays finite and metric-ish on the result.
	d := dissimilarity(m)
	for i := range d.Data {
		if math.IsNaN(d.Data[i]) || math.IsInf(d.Data[i], 0) {
			t.Fatalf("dissimilarity entry %d non-finite", i)
		}
	}
}

// TestPearsonRejectsNonFinite pins the rejection of NaN/Inf samples: they
// previously flowed through normalization into NaN correlations that
// silently poisoned TMFG gain comparisons.
func TestPearsonRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name   string
		series [][]float64
		rowIdx string
	}{
		{"nan", [][]float64{{1, 2, 3}, {4, math.NaN(), 6}}, "series 1"},
		{"+inf", [][]float64{{1, math.Inf(1), 3}, {4, 5, 6}}, "series 0"},
		{"-inf", [][]float64{{1, 2, 3}, {math.Inf(-1), 5, 6}}, "series 1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := pearson(tc.series)
			if err == nil {
				t.Fatal("Pearson accepted non-finite input")
			}
			if !strings.Contains(err.Error(), "non-finite") || !strings.Contains(err.Error(), tc.rowIdx) {
				t.Fatalf("error %q does not identify the offending row", err)
			}
		})
	}
}
