// Package spectral implements spectral embedding for the K-MEANS-S baseline:
// a symmetrized k-nearest-neighbor affinity graph, the normalized graph
// Laplacian, and a block orthogonal-iteration eigensolver (stdlib-only
// replacement for scikit-learn's ARPACK-backed spectral_embedding).
//
// The embedding maps each point to the leading eigenvectors of the
// normalized adjacency D^{-1/2} W D^{-1/2}, equivalently the smallest
// eigenvectors of the normalized Laplacian, which is the representation the
// paper's K-MEANS-S baseline clusters with k-means.
package spectral

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pfg/internal/exec"
)

// Options configures the embedding.
type Options struct {
	// Neighbors is the kNN parameter β from Figure 9.
	Neighbors int
	// Components is the embedding dimension (the paper projects onto the
	// number of ground-truth clusters).
	Components int
	// Iterations bounds the orthogonal iteration count (default 300).
	Iterations int
	// Tolerance stops iteration when the subspace rotates less than this
	// (default 1e-7).
	Tolerance float64
	// Seed controls the random initial subspace.
	Seed int64
}

// EmbedCtx computes the spectral embedding of the points on pool;
// cancellation is checked during kNN graph construction and once per
// orthogonal-iteration step.
func EmbedCtx(ctx context.Context, pool *exec.Pool, points [][]float64, opts Options) ([][]float64, error) {
	n := len(points)
	if n == 0 {
		return nil, fmt.Errorf("spectral: no points")
	}
	if opts.Neighbors < 1 || opts.Neighbors >= n {
		return nil, fmt.Errorf("spectral: neighbors=%d out of range [1,%d)", opts.Neighbors, n)
	}
	if opts.Components < 1 || opts.Components > n {
		return nil, fmt.Errorf("spectral: components=%d out of range [1,%d]", opts.Components, n)
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 300
	}
	if opts.Tolerance <= 0 {
		opts.Tolerance = 1e-7
	}
	adj, err := KNNGraphCtx(ctx, pool, points, opts.Neighbors)
	if err != nil {
		return nil, err
	}
	return embedFromAdjacency(ctx, pool, adj, n, opts)
}

// sparse is an adjacency list with unit (connectivity) weights.
type sparse struct {
	adj [][]int32
}

// KNNGraphCtx builds the symmetrized connectivity kNN graph: i~j if j is
// among i's k nearest neighbors or vice versa (scikit-learn's default
// affinity), on pool with cooperative cancellation (the per-point neighbor
// scans are the expensive chunks).
func KNNGraphCtx(ctx context.Context, pool *exec.Pool, points [][]float64, k int) (*sparse, error) {
	n := len(points)
	nbrs := make([][]int32, n)
	err := pool.ForGrain(ctx, n, 1, func(i int) {
		type dv struct {
			d float64
			j int32
		}
		cand := make([]dv, 0, n-1)
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			cand = append(cand, dv{d: sqDist(points[i], points[j]), j: int32(j)})
		}
		sort.Slice(cand, func(a, b int) bool {
			if cand[a].d != cand[b].d {
				return cand[a].d < cand[b].d
			}
			return cand[a].j < cand[b].j
		})
		if len(cand) > k {
			cand = cand[:k]
		}
		out := make([]int32, len(cand))
		for x, c := range cand {
			out[x] = c.j
		}
		nbrs[i] = out
	})
	if err != nil {
		return nil, err
	}
	// Symmetrize.
	sets := make([]map[int32]bool, n)
	for i := range sets {
		sets[i] = map[int32]bool{}
	}
	for i, ns := range nbrs {
		for _, j := range ns {
			sets[i][j] = true
			sets[j][int32(i)] = true
		}
	}
	s := &sparse{adj: make([][]int32, n)}
	for i := range sets {
		out := make([]int32, 0, len(sets[i]))
		for j := range sets[i] {
			out = append(out, j)
		}
		sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
		s.adj[i] = out
	}
	return s, nil
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// embedFromAdjacency computes the leading eigenvectors of
// B = D^{-1/2} W D^{-1/2} + I via block orthogonal iteration. Adding I
// shifts the spectrum to [0, 2] so the leading eigenvectors of B are the
// smallest of the normalized Laplacian.
func embedFromAdjacency(ctx context.Context, pool *exec.Pool, s *sparse, n int, opts Options) ([][]float64, error) {
	invSqrtDeg := make([]float64, n)
	for i := range s.adj {
		d := float64(len(s.adj[i]))
		if d == 0 {
			d = 1 // isolated point: degenerate row, acts as identity
		}
		invSqrtDeg[i] = 1 / math.Sqrt(d)
	}
	k := opts.Components
	rng := rand.New(rand.NewSource(opts.Seed))
	// Column-major block Q: k vectors of length n.
	q := make([][]float64, k)
	for c := range q {
		q[c] = make([]float64, n)
		for i := range q[c] {
			q[c][i] = rng.NormFloat64()
		}
	}
	// The all-ones direction scaled by sqrt(deg) is the known top
	// eigenvector; seeding it in the block accelerates convergence.
	for i := 0; i < n; i++ {
		q[0][i] = 1 / invSqrtDeg[i]
	}
	orthonormalize(q)
	tmp := make([][]float64, k)
	for c := range tmp {
		tmp[c] = make([]float64, n)
	}
	for iter := 0; iter < opts.Iterations; iter++ {
		// tmp = B q.
		err := pool.ForGrain(ctx, k, 1, func(c int) {
			matVec(s, invSqrtDeg, q[c], tmp[c])
		})
		if err != nil {
			return nil, err
		}
		for c := range q {
			q[c], tmp[c] = tmp[c], q[c]
		}
		orthonormalize(q)
		// Convergence: how far each new vector rotated away from the old
		// one (tmp still holds the previous iterate, which was orthonormal).
		delta := 0.0
		for c := range q {
			dot := 0.0
			for i := range q[c] {
				dot += q[c][i] * tmp[c][i]
			}
			if d := 1 - math.Abs(dot); d > delta {
				delta = d
			}
		}
		if delta < opts.Tolerance {
			break
		}
	}
	// Rows of Q are the embedding coordinates, diffusion-style scaling by
	// D^{-1/2} (matching spectral_embedding's use of the random-walk
	// eigenvectors).
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		row := make([]float64, k)
		for c := 0; c < k; c++ {
			row[c] = q[c][i] * invSqrtDeg[i]
		}
		out[i] = row
	}
	return out, nil
}

// matVec computes out = (D^{-1/2} W D^{-1/2} + I) v.
func matVec(s *sparse, invSqrtDeg, v, out []float64) {
	for i := range out {
		acc := v[i] // the +I shift
		di := invSqrtDeg[i]
		for _, j := range s.adj[i] {
			acc += di * invSqrtDeg[j] * v[j]
		}
		out[i] = acc
	}
}

// orthonormalize runs modified Gram-Schmidt on the block in place.
func orthonormalize(q [][]float64) {
	for c := range q {
		for p := 0; p < c; p++ {
			dot := 0.0
			for i := range q[c] {
				dot += q[c][i] * q[p][i]
			}
			for i := range q[c] {
				q[c][i] -= dot * q[p][i]
			}
		}
		norm := 0.0
		for _, x := range q[c] {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm < 1e-300 {
			// Degenerate direction: re-randomize deterministically.
			for i := range q[c] {
				q[c][i] = math.Sin(float64(i*(c+3) + 1))
			}
			orthonormalize(q)
			return
		}
		inv := 1 / norm
		for i := range q[c] {
			q[c][i] *= inv
		}
	}
}
