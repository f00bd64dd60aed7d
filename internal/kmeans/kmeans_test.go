package kmeans

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"pfg/internal/exec"
)

// run clusters points on the default pool.
func run(points [][]float64, opts Options) (*Result, error) {
	return RunCtx(context.Background(), exec.Default(), points, opts)
}

// blobs generates k well-separated Gaussian clusters.
func blobs(rng *rand.Rand, k, perCluster, dim int, sep float64) (points [][]float64, truth []int) {
	centers := make([][]float64, k)
	for c := range centers {
		centers[c] = make([]float64, dim)
		for d := range centers[c] {
			centers[c][d] = sep * float64(c) * (1 + 0.1*float64(d%3))
		}
	}
	for c := 0; c < k; c++ {
		for i := 0; i < perCluster; i++ {
			p := make([]float64, dim)
			for d := range p {
				p[d] = centers[c][d] + rng.NormFloat64()*0.3
			}
			points = append(points, p)
			truth = append(truth, c)
		}
	}
	return points, truth
}

func clusterAgreement(a, b []int) float64 {
	// Fraction of pairs on which the partitions agree.
	n := len(a)
	agree, total := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			total++
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
		}
	}
	return float64(agree) / float64(total)
}

func TestRecoversSeparatedBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	points, truth := blobs(rng, 4, 50, 6, 10)
	for _, scalable := range []bool{false, true} {
		res, err := run(points, Options{K: 4, Seed: 7, Scalable: scalable})
		if err != nil {
			t.Fatal(err)
		}
		if got := clusterAgreement(truth, res.Labels); got < 0.999 {
			t.Fatalf("scalable=%v: agreement %v, want ≈ 1", scalable, got)
		}
	}
}

func TestCentersAreMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	points, _ := blobs(rng, 3, 40, 4, 8)
	res, err := run(points, Options{K: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dim := len(points[0])
	for c := range res.Centers {
		sum := make([]float64, dim)
		count := 0
		for i, p := range points {
			if res.Labels[i] == c {
				count++
				for d := range p {
					sum[d] += p[d]
				}
			}
		}
		if count == 0 {
			t.Fatalf("cluster %d empty", c)
		}
		for d := 0; d < dim; d++ {
			if math.Abs(sum[d]/float64(count)-res.Centers[c][d]) > 1e-9 {
				t.Fatalf("center %d dim %d is not the mean", c, d)
			}
		}
	}
}

func TestInertiaDecreasesWithK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	points, _ := blobs(rng, 5, 30, 3, 5)
	var prev float64 = math.Inf(1)
	for _, k := range []int{1, 2, 5, 20} {
		res, err := run(points, Options{K: k, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev+1e-9 {
			t.Fatalf("inertia increased from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	points, _ := blobs(rng, 3, 30, 4, 6)
	a, err := run(points, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(points, Options{K: 3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed must give same labels")
		}
	}
}

// TestWorkersBitIdentical: the pool size changes only the schedule. At
// n ≥ 2048, where every loop over points splits across workers, labels,
// centers and inertia are bit-identical at Workers 1, 2 and 4.
func TestWorkersBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	points, _ := blobs(rng, 5, 820, 8, 1.5)
	for _, scalable := range []bool{false, true} {
		var want *Result
		for _, workers := range []int{1, 2, 4} {
			pool := exec.New(workers)
			got, err := RunCtx(context.Background(), pool, points, Options{K: 5, Seed: 9, Scalable: scalable})
			pool.Close()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
				continue
			}
			if math.Float64bits(got.Inertia) != math.Float64bits(want.Inertia) {
				t.Fatalf("scalable=%v workers=%d: inertia %v, want %v (Workers 1)", scalable, workers, got.Inertia, want.Inertia)
			}
			for i := range want.Labels {
				if got.Labels[i] != want.Labels[i] {
					t.Fatalf("scalable=%v workers=%d: label[%d] = %d, want %d", scalable, workers, i, got.Labels[i], want.Labels[i])
				}
			}
			for c := range want.Centers {
				for d := range want.Centers[c] {
					if math.Float64bits(got.Centers[c][d]) != math.Float64bits(want.Centers[c][d]) {
						t.Fatalf("scalable=%v workers=%d: center[%d][%d] = %v, want %v", scalable, workers, c, d, got.Centers[c][d], want.Centers[c][d])
					}
				}
			}
		}
	}
}

func TestEdgeCases(t *testing.T) {
	if _, err := run(nil, Options{K: 1}); err == nil {
		t.Fatal("empty input accepted")
	}
	pts := [][]float64{{1, 2}, {3, 4}}
	if _, err := run(pts, Options{K: 0}); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := run(pts, Options{K: 3}); err == nil {
		t.Fatal("k>n accepted")
	}
	if _, err := run([][]float64{{1}, {1, 2}}, Options{K: 1}); err == nil {
		t.Fatal("ragged input accepted")
	}
	// k = n: every point its own cluster, inertia 0.
	res, err := run(pts, Options{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("k=n inertia %v, want 0", res.Inertia)
	}
	// k = 1: center is the global mean.
	res1, err := run(pts, Options{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.Centers[0][0]-2) > 1e-12 || math.Abs(res1.Centers[0][1]-3) > 1e-12 {
		t.Fatalf("k=1 center %v, want [2 3]", res1.Centers[0])
	}
}

func TestIdenticalPoints(t *testing.T) {
	pts := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	res, err := run(pts, Options{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia %v", res.Inertia)
	}
}

func TestScalableInitQualityComparable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	points, _ := blobs(rng, 6, 40, 5, 8)
	pp, err := run(points, Options{K: 6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sc, err := run(points, Options{K: 6, Seed: 9, Scalable: true})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Inertia > 3*pp.Inertia+1e-9 {
		t.Fatalf("scalable inertia %v far worse than ++ %v", sc.Inertia, pp.Inertia)
	}
}
