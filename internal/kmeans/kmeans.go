// Package kmeans implements Lloyd's algorithm with k-means++ and scalable
// k-means|| (Bahmani et al.) initialization, parallelized over points. It is
// the K-MEANS baseline of the paper's evaluation (a stand-in for the MPI
// scalable-k-means++ implementation) and the final step of the K-MEANS-S
// spectral pipeline.
package kmeans

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"pfg/internal/exec"
)

const (
	maxIter          = 100 // bound on the Lloyd iterations
	oversampleRounds = 5   // k-means|| rounds
)

// Options configures a clustering run.
type Options struct {
	// K is the number of clusters (required).
	K int
	// Seed makes the run deterministic.
	Seed int64
	// Scalable selects k-means|| initialization instead of k-means++.
	Scalable bool
}

// Result holds the clustering output.
type Result struct {
	Labels     []int
	Centers    [][]float64
	Inertia    float64 // sum of squared distances to assigned centers
	Iterations int
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// RunCtx clusters the points (each a vector of equal dimension) on pool;
// cancellation is checked once per Lloyd iteration and inside the parallel
// assignment loops.
func RunCtx(ctx context.Context, pool *exec.Pool, points [][]float64, opts Options) (*Result, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("kmeans: no points")
	}
	if opts.K < 1 || opts.K > n {
		return nil, fmt.Errorf("kmeans: k=%d out of range [1,%d]", opts.K, n)
	}
	dim := len(points[0])
	for i, p := range points {
		if len(p) != dim {
			return nil, fmt.Errorf("kmeans: point %d has dimension %d, want %d", i, len(p), dim)
		}
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	var centers [][]float64
	var err error
	if opts.Scalable {
		centers, err = initScalable(ctx, pool, points, opts.K, rng)
	} else {
		centers, err = initPlusPlus(ctx, pool, points, opts.K, rng)
	}
	if err != nil {
		return nil, err
	}
	labels := make([]int, n)
	dists := make([]float64, n)
	iter := 0
	for ; iter < maxIter; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		changed, err := assign(ctx, pool, points, centers, labels, dists)
		if err != nil {
			return nil, err
		}
		if !recompute(points, centers, labels, rng) && !changed {
			break
		}
		if !changed {
			break
		}
	}
	if _, err := assign(ctx, pool, points, centers, labels, dists); err != nil {
		return nil, err
	}
	inertia := 0.0
	for _, d := range dists {
		inertia += d
	}
	return &Result{Labels: labels, Centers: centers, Inertia: inertia, Iterations: iter}, nil
}

// assign sets labels to the nearest center, returning whether any changed.
func assign(ctx context.Context, pool *exec.Pool, points, centers [][]float64, labels []int, dists []float64) (bool, error) {
	var changed atomic.Bool
	err := pool.ForBlocked(ctx, len(points), 256, func(lo, hi int) {
		c := false
		for i := lo; i < hi; i++ {
			best, bd := 0, math.Inf(1)
			for k, ctr := range centers {
				if d := sqDist(points[i], ctr); d < bd {
					best, bd = k, d
				}
			}
			if labels[i] != best {
				labels[i] = best
				c = true
			}
			dists[i] = bd
		}
		if c {
			changed.Store(true)
		}
	})
	return changed.Load(), err
}

// recompute recalculates centers as the means of their assignments; empty
// clusters are reseeded at a random point. Returns whether reseeding
// occurred.
func recompute(points, centers [][]float64, labels []int, rng *rand.Rand) bool {
	k := len(centers)
	dim := len(points[0])
	sums := make([][]float64, k)
	counts := make([]int, k)
	for c := range sums {
		sums[c] = make([]float64, dim)
	}
	for i, p := range points {
		c := labels[i]
		counts[c]++
		for d := range p {
			sums[c][d] += p[d]
		}
	}
	reseeded := false
	for c := 0; c < k; c++ {
		if counts[c] == 0 {
			copy(centers[c], points[rng.Intn(len(points))])
			reseeded = true
			continue
		}
		inv := 1 / float64(counts[c])
		for d := 0; d < dim; d++ {
			centers[c][d] = sums[c][d] * inv
		}
	}
	return reseeded
}

// initPlusPlus is standard k-means++ seeding.
func initPlusPlus(ctx context.Context, pool *exec.Pool, points [][]float64, k int, rng *rand.Rand) ([][]float64, error) {
	n := len(points)
	centers := make([][]float64, 0, k)
	first := rng.Intn(n)
	centers = append(centers, append([]float64{}, points[first]...))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(points[i], centers[0])
	}
	for len(centers) < k {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		var idx int
		if total == 0 {
			idx = rng.Intn(n)
		} else {
			r := rng.Float64() * total
			acc := 0.0
			idx = n - 1
			for i, d := range d2 {
				acc += d
				if acc >= r {
					idx = i
					break
				}
			}
		}
		c := append([]float64{}, points[idx]...)
		centers = append(centers, c)
		err := pool.ForBlocked(ctx, n, 1024, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if d := sqDist(points[i], c); d < d2[i] {
					d2[i] = d
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return centers, nil
}

// initScalable is k-means|| seeding: oversample ~2k candidates per round for
// a few rounds, then weight candidates by attraction counts and run
// k-means++ on the weighted candidate set.
func initScalable(ctx context.Context, pool *exec.Pool, points [][]float64, k int, rng *rand.Rand) ([][]float64, error) {
	n := len(points)
	var cand [][]float64
	first := rng.Intn(n)
	cand = append(cand, append([]float64{}, points[first]...))
	d2 := make([]float64, n)
	for i := range d2 {
		d2[i] = sqDist(points[i], cand[0])
	}
	l := 2 * k // oversampling factor
	for r := 0; r < oversampleRounds; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		total := 0.0
		for _, d := range d2 {
			total += d
		}
		if total == 0 {
			break
		}
		var newIdx []int
		for i := 0; i < n; i++ {
			p := float64(l) * d2[i] / total
			if rng.Float64() < p {
				newIdx = append(newIdx, i)
			}
		}
		for _, i := range newIdx {
			cand = append(cand, append([]float64{}, points[i]...))
		}
		err := pool.ForBlocked(ctx, n, 1024, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				for _, idx := range newIdx {
					if d := sqDist(points[i], points[idx]); d < d2[i] {
						d2[i] = d
					}
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if len(cand) <= k {
		// Too few candidates: top up with random points.
		for len(cand) < k {
			cand = append(cand, append([]float64{}, points[rng.Intn(n)]...))
		}
		return cand[:k], nil
	}
	// Weight candidates by how many points they attract (nearest-candidate
	// counts), accumulating per point into per-index assignments first so
	// the parallel loop writes disjoint slots.
	nearest := make([]int, n)
	err := pool.ForBlocked(ctx, n, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			best, bd := 0, math.Inf(1)
			for c := range cand {
				if d := sqDist(points[i], cand[c]); d < bd {
					best, bd = c, d
				}
			}
			nearest[i] = best
		}
	})
	if err != nil {
		return nil, err
	}
	weights := make([]float64, len(cand))
	for _, c := range nearest {
		weights[c]++
	}
	return weightedPlusPlus(cand, weights, k, rng), nil
}

// weightedPlusPlus runs k-means++ over weighted candidates.
func weightedPlusPlus(cand [][]float64, w []float64, k int, rng *rand.Rand) [][]float64 {
	centers := make([][]float64, 0, k)
	pick := func(dist []float64) int {
		t := 0.0
		for i := range cand {
			m := w[i]
			if dist != nil {
				m *= dist[i]
			}
			t += m
		}
		if t == 0 {
			return rng.Intn(len(cand))
		}
		r := rng.Float64() * t
		acc := 0.0
		for i := range cand {
			m := w[i]
			if dist != nil {
				m *= dist[i]
			}
			acc += m
			if acc >= r {
				return i
			}
		}
		return len(cand) - 1
	}
	// First pick: weighted by w.
	first := pick(nil)
	centers = append(centers, append([]float64{}, cand[first]...))
	d2 := make([]float64, len(cand))
	for i := range d2 {
		d2[i] = sqDist(cand[i], centers[0])
	}
	for len(centers) < k {
		idx := pick(d2)
		c := append([]float64{}, cand[idx]...)
		centers = append(centers, c)
		for i := range d2 {
			if d := sqDist(cand[i], c); d < d2[i] {
				d2[i] = d
			}
		}
	}
	return centers
}
