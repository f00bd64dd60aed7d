package spectral

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/kmeans"
)

// embed and knnGraph run the entry points on the default pool.
func embed(points [][]float64, opts Options) ([][]float64, error) {
	return EmbedCtx(context.Background(), exec.Default(), points, opts)
}

func knnGraph(t *testing.T, points [][]float64, k int) *sparse {
	t.Helper()
	g, err := KNNGraphCtx(context.Background(), exec.Default(), points, k)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func twoBlobs(rng *rand.Rand, per int) ([][]float64, []int) {
	var pts [][]float64
	var truth []int
	for c := 0; c < 2; c++ {
		for i := 0; i < per; i++ {
			pts = append(pts, []float64{
				float64(c)*10 + rng.NormFloat64()*0.5,
				float64(c)*10 + rng.NormFloat64()*0.5,
			})
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func TestKNNGraphSymmetricAndSized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts, _ := twoBlobs(rng, 20)
	g := knnGraph(t, pts, 5)
	for i := range g.adj {
		if len(g.adj[i]) < 5 {
			t.Fatalf("vertex %d has only %d neighbors", i, len(g.adj[i]))
		}
		for _, j := range g.adj[i] {
			found := false
			for _, back := range g.adj[j] {
				if back == int32(i) {
					found = true
				}
			}
			if !found {
				t.Fatalf("kNN graph not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestKNNGraphNearestNeighborIncluded(t *testing.T) {
	pts := [][]float64{{0}, {0.1}, {5}, {5.1}, {10}}
	g := knnGraph(t, pts, 1)
	has := func(i int, j int32) bool {
		for _, x := range g.adj[i] {
			if x == j {
				return true
			}
		}
		return false
	}
	if !has(0, 1) || !has(2, 3) {
		t.Fatalf("nearest neighbors missing: %v", g.adj)
	}
}

func TestEmbedSeparatesBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts, truth := twoBlobs(rng, 40)
	emb, err := embed(pts, Options{Neighbors: 10, Components: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := kmeans.RunCtx(context.Background(), exec.Default(), emb, kmeans.Options{K: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Perfect agreement up to label swap.
	agree := 0
	for i := range truth {
		if res.Labels[i] == res.Labels[0] && truth[i] == truth[0] {
			agree++
		}
		if res.Labels[i] != res.Labels[0] && truth[i] != truth[0] {
			agree++
		}
	}
	if agree != len(truth) {
		t.Fatalf("spectral embedding + kmeans agreement %d/%d", agree, len(truth))
	}
}

func TestEmbedOutputShape(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts, _ := twoBlobs(rng, 15)
	emb, err := embed(pts, Options{Neighbors: 4, Components: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(emb) != len(pts) {
		t.Fatalf("embedding has %d rows, want %d", len(emb), len(pts))
	}
	for _, r := range emb {
		if len(r) != 3 {
			t.Fatalf("row has %d components, want 3", len(r))
		}
		for _, v := range r {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite embedding value")
			}
		}
	}
}

func TestEmbedErrors(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	if _, err := embed(nil, Options{Neighbors: 1, Components: 1}); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := embed(pts, Options{Neighbors: 0, Components: 1}); err == nil {
		t.Fatal("neighbors=0 accepted")
	}
	if _, err := embed(pts, Options{Neighbors: 5, Components: 1}); err == nil {
		t.Fatal("neighbors ≥ n accepted")
	}
	if _, err := embed(pts, Options{Neighbors: 1, Components: 0}); err == nil {
		t.Fatal("components=0 accepted")
	}
}

// TestEigenvectorResidual checks that the computed block actually spans an
// invariant subspace: ‖Bq − q(qᵀBq)‖ should be small per vector.
func TestEigenvectorResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	pts, _ := twoBlobs(rng, 30)
	n := len(pts)
	g := knnGraph(t, pts, 8)
	opts := Options{Neighbors: 8, Components: 2, Seed: 7, Iterations: 500, Tolerance: 1e-12}
	emb, err := embedFromAdjacency(context.Background(), exec.Default(), g, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the unscaled eigenvector block q from the embedding (invert
	// the D^{-1/2} scaling).
	invSqrtDeg := make([]float64, n)
	for i := range g.adj {
		invSqrtDeg[i] = 1 / math.Sqrt(float64(len(g.adj[i])))
	}
	k := 2
	q := make([][]float64, k)
	for c := 0; c < k; c++ {
		q[c] = make([]float64, n)
		for i := 0; i < n; i++ {
			q[c][i] = emb[i][c] / invSqrtDeg[i]
		}
	}
	for c := 0; c < k; c++ {
		bq := make([]float64, n)
		matVec(g, invSqrtDeg, q[c], bq)
		// Rayleigh quotient.
		num, den := 0.0, 0.0
		for i := range bq {
			num += q[c][i] * bq[i]
			den += q[c][i] * q[c][i]
		}
		lambda := num / den
		res := 0.0
		for i := range bq {
			d := bq[i] - lambda*q[c][i]
			res += d * d
		}
		// Project out the other eigenvector's component (block may mix
		// within eigenspaces).
		if math.Sqrt(res) > 0.05 {
			t.Fatalf("vector %d residual %v too large (λ=%v)", c, math.Sqrt(res), lambda)
		}
	}
}
