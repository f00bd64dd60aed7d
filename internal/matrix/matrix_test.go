package matrix

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pfg/internal/exec"
)

// pearson and dissimilarity run the workspace entry points on the default
// pool without a workspace.
func pearson(series [][]float64) (*Sym, error) {
	return PearsonWS(context.Background(), exec.Default(), nil, series)
}

func dissimilarity(corr *Sym) *Sym {
	d, _ := DissimilarityWS(context.Background(), exec.Default(), nil, corr)
	return d
}

func naivePearson(a, b []float64) float64 {
	l := len(a)
	ma, mb := 0.0, 0.0
	for t := 0; t < l; t++ {
		ma += a[t]
		mb += b[t]
	}
	ma /= float64(l)
	mb /= float64(l)
	var num, da, db float64
	for t := 0; t < l; t++ {
		num += (a[t] - ma) * (b[t] - mb)
		da += (a[t] - ma) * (a[t] - ma)
		db += (b[t] - mb) * (b[t] - mb)
	}
	if da == 0 || db == 0 {
		return 0
	}
	return num / math.Sqrt(da*db)
}

func randSeries(rng *rand.Rand, n, l int) [][]float64 {
	s := make([][]float64, n)
	for i := range s {
		s[i] = make([]float64, l)
		for t := range s[i] {
			s[i][t] = rng.NormFloat64()
		}
	}
	return s
}

func TestSymSetAt(t *testing.T) {
	m := NewSym(4)
	m.Set(1, 3, 2.5)
	if m.At(1, 3) != 2.5 || m.At(3, 1) != 2.5 {
		t.Fatal("Set must write both triangles")
	}
	for i := 0; i < m.N; i++ {
		for j := 0; j < m.N; j++ {
			if m.At(i, j) != m.At(j, i) {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestSymRowSumClone(t *testing.T) {
	m := NewSym(3)
	m.Set(0, 1, 1)
	m.Set(0, 2, 2)
	if got := m.RowSum(0); got != 3 {
		t.Fatalf("RowSum got %v want 3", got)
	}
}

func TestPearsonMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	series := randSeries(rng, 20, 64)
	m, err := pearson(series)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			want := naivePearson(series[i], series[j])
			if math.Abs(m.At(i, j)-want) > 1e-10 {
				t.Fatalf("(%d,%d): got %v want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestPearsonDiagonalAndSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		series := randSeries(rng, 12, 30)
		m, err := pearson(series)
		if err != nil {
			return false
		}
		for i := 0; i < m.N; i++ {
			if math.Abs(m.At(i, i)-1) > 1e-12 {
				return false
			}
			for j := 0; j < m.N; j++ {
				if m.At(i, j) != m.At(j, i) || m.At(i, j) < -1 || m.At(i, j) > 1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 4, 6, 8, 10} // p = 1
	c := []float64{5, 4, 3, 2, 1}  // p = -1 with a
	m, err := pearson([][]float64{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.At(0, 1)-1) > 1e-12 {
		t.Fatalf("p(a,b)=%v want 1", m.At(0, 1))
	}
	if math.Abs(m.At(0, 2)+1) > 1e-12 {
		t.Fatalf("p(a,c)=%v want -1", m.At(0, 2))
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	m, err := pearson([][]float64{{1, 1, 1}, {1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 0) != 1 {
		t.Fatal("constant series must self-correlate 1")
	}
	if m.At(0, 1) != 0 {
		t.Fatal("constant series must correlate 0 with others")
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := pearson(nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := pearson([][]float64{{1}}); err == nil {
		t.Fatal("expected error for length-1 series")
	}
	if _, err := pearson([][]float64{{1, 2}, {1, 2, 3}}); err == nil {
		t.Fatal("expected error for ragged series")
	}
}

func TestDissimilarityFormula(t *testing.T) {
	c := NewSym(2)
	c.Set(0, 0, 1)
	c.Set(1, 1, 1)
	c.Set(0, 1, 0.5)
	d := dissimilarity(c)
	want := math.Sqrt(2 * 0.5)
	if math.Abs(d.At(0, 1)-want) > 1e-12 {
		t.Fatalf("got %v want %v", d.At(0, 1), want)
	}
	if d.At(0, 0) != 0 {
		t.Fatal("self-dissimilarity must be 0")
	}
}

func TestDissimilarityEqualsEuclideanForNormalized(t *testing.T) {
	// For zero-mean unit-norm vectors, sqrt(2(1-p)) equals the Euclidean
	// distance between the normalized vectors.
	rng := rand.New(rand.NewSource(1))
	series := randSeries(rng, 6, 40)
	c, _ := pearson(series)
	d := dissimilarity(c)
	norm := func(s []float64) []float64 {
		m := 0.0
		for _, v := range s {
			m += v
		}
		m /= float64(len(s))
		out := make([]float64, len(s))
		ss := 0.0
		for i, v := range s {
			out[i] = v - m
			ss += out[i] * out[i]
		}
		for i := range out {
			out[i] /= math.Sqrt(ss)
		}
		return out
	}
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			a, b := norm(series[i]), norm(series[j])
			var ss float64
			for t := range a {
				ss += (a[t] - b[t]) * (a[t] - b[t])
			}
			if math.Abs(d.At(i, j)-math.Sqrt(ss)) > 1e-9 {
				t.Fatalf("(%d,%d): dissimilarity %v != euclidean %v", i, j, d.At(i, j), math.Sqrt(ss))
			}
		}
	}
}

func TestEdgeWeightSum(t *testing.T) {
	m := NewSym(3)
	m.Set(0, 1, 1)
	m.Set(1, 2, 2)
	m.Set(0, 2, 4)
	got := EdgeWeightSum(m, [][2]int32{{0, 1}, {1, 2}})
	if got != 3 {
		t.Fatalf("got %v want 3", got)
	}
}

// TestPearsonWorkersBitIdentical verifies the kernel determinism guarantee
// at the pool level: the correlation and dissimilarity matrices are
// bit-identical whatever the worker budget, because every SYRK entry
// accumulates in a fixed order regardless of band partitioning.
func TestPearsonWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, l = 67, 130
	series := make([][]float64, n)
	for i := range series {
		s := make([]float64, l)
		for t2 := range s {
			s[t2] = rng.NormFloat64()
		}
		series[i] = s
	}
	series[5] = make([]float64, l) // constant series: zero-variance path
	ctx := context.Background()

	p1 := exec.New(1)
	defer p1.Close()
	sim1, dis1, err := PearsonDissimWS(ctx, p1, nil, series)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		p := exec.New(workers)
		sim, dis, err := PearsonDissimWS(ctx, p, nil, series)
		p.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range sim.Data {
			if math.Float64bits(sim.Data[i]) != math.Float64bits(sim1.Data[i]) {
				t.Fatalf("workers=%d: sim[%d] differs: %v vs %v", workers, i, sim.Data[i], sim1.Data[i])
			}
			if math.Float64bits(dis.Data[i]) != math.Float64bits(dis1.Data[i]) {
				t.Fatalf("workers=%d: dis[%d] differs", workers, i)
			}
		}
	}
}
