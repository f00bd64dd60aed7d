// Package hac implements hierarchical agglomerative clustering with the
// nearest-neighbor chain algorithm, supporting complete, average, and single
// linkage. It serves both as the COMP/AVG baselines of the paper's
// evaluation (a stand-in for the ParChain implementations of Yu et al.) and
// as the complete-linkage subroutine inside DBHT hierarchy construction.
//
// The NN-chain algorithm is O(n²) time and O(n²) space on a dissimilarity
// matrix and is exact for the reducible linkages implemented here. The
// initial matrix construction and the Lance-Williams row updates are
// parallelized.
package hac

import (
	"context"
	"fmt"
	"math"
	"slices"

	"pfg/internal/bitset"
	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// Linkage selects the cluster-distance update rule.
type Linkage int

const (
	// Complete linkage: d(A∪B, C) = max(d(A,C), d(B,C)).
	Complete Linkage = iota
	// Average linkage (UPGMA): size-weighted mean.
	Average
	// Single linkage: d(A∪B, C) = min(d(A,C), d(B,C)).
	Single
)

func (l Linkage) String() string {
	switch l {
	case Complete:
		return "complete"
	case Average:
		return "average"
	case Single:
		return "single"
	default:
		return fmt.Sprintf("Linkage(%d)", int(l))
	}
}

// RunMatrixWS clusters using a prebuilt row-major n×n dissimilarity matrix,
// which is consumed (overwritten) by the algorithm, on pool with
// cooperative cancellation checked once per NN-chain merge. The NN-chain
// state is drawn from w (nil allocates). It returns a full dendrogram whose
// merge heights are the linkage distances.
func RunMatrixWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, n int, d []float64, linkage Linkage) (*dendro.Dendrogram, error) {
	out, err := RunMatrixIntoWS(ctx, pool, w, n, d, linkage, make([]dendro.Merge, 0, max(n-1, 0)))
	if err != nil {
		return nil, err
	}
	return &dendro.Dendrogram{N: n, Merges: out}, nil
}

// RunMatrixIntoWS is RunMatrixWS writing the dendrogram's merges into
// caller-provided storage: out's backing array must have capacity ≥ n−1
// (its length is ignored), and the returned slice aliases it. Repeated runs
// through a shared backing array allocate nothing, which is what the DBHT
// hierarchy construction leans on for its many tiny per-subgroup linkages.
// d is consumed (overwritten) as in RunMatrixWS.
func RunMatrixIntoWS(ctx context.Context, pool *exec.Pool, w *ws.Workspace, n int, d []float64, linkage Linkage, out []dendro.Merge) ([]dendro.Merge, error) {
	if n < 1 {
		return nil, fmt.Errorf("hac: n must be ≥ 1, got %d", n)
	}
	if len(d) != n*n {
		return nil, fmt.Errorf("hac: matrix length %d, want %d", len(d), n*n)
	}
	if cap(out) < n-1 {
		return nil, fmt.Errorf("hac: merge storage capacity %d, want ≥ %d", cap(out), n-1)
	}
	if n == 1 {
		return out[:0], nil
	}
	return runOnMatrixInto(ctx, pool, w, n, d, linkage, out[:0])
}

// lwSeqCutoff is the matrix size below which the Lance-Williams row update
// runs sequentially (one row update is too small to amortize dispatch).
const lwSeqCutoff = 2048

// lwState carries the per-merge Lance-Williams update parameters.
type lwState struct {
	d       []float64
	dead    *bitset.Set
	linkage Linkage
	n       int
	ma, mb  int32
	sa, sb  float64
	na, nb  int
}

// update applies the Lance-Williams recurrence to rows [lo, hi). It also
// poisons the merged-away column mb to +Inf in every live row: dead slots
// (and the diagonal, poisoned once at the start) then scan as +Inf, which
// lets the nearest-neighbor search run the branch-free kernel.MinIdx over
// whole rows instead of testing a dead bitset per entry. d[ma][mb] is
// poisoned by the caller, since the update skips rows ma and mb.
func (u *lwState) update(lo, hi int) {
	d, n := u.d, u.n
	inf := math.Inf(1)
	for y := lo; y < hi; y++ {
		if u.dead.Test(int32(y)) || int32(y) == u.ma || int32(y) == u.mb {
			continue
		}
		var nd float64
		switch u.linkage {
		case Complete:
			nd = math.Max(d[u.na+y], d[u.nb+y])
		case Single:
			nd = math.Min(d[u.na+y], d[u.nb+y])
		default: // Average
			nd = (u.sa*d[u.na+y] + u.sb*d[u.nb+y]) / (u.sa + u.sb)
		}
		d[u.na+y] = nd
		d[y*n+int(u.ma)] = nd
		d[y*n+int(u.mb)] = inf
	}
}

// runOnMatrixInto is the allocation-free core: it appends the n−1 merges to
// out (whose backing array must have capacity ≥ n−1 beyond its length) and
// returns the extended slice. Merges are first accumulated over matrix
// slots, then relabeled in place (see labelInPlace).
func runOnMatrixInto(ctx context.Context, pool *exec.Pool, w *ws.Workspace, n int, d []float64, linkage Linkage, out []dendro.Merge) ([]dendro.Merge, error) {
	if n == 2 {
		// One merge, no chain bookkeeping: the common case for the tiny
		// per-subgroup linkages inside DBHT hierarchy construction.
		return append(out, dendro.Merge{A: 0, B: 1, Height: d[1]}), nil
	}
	// Poison the diagonal so the nearest-neighbor scans never select self;
	// merged-away columns get the same treatment as clusters die, so the
	// scan is a pure unmasked min over the row.
	for i := 0; i < n; i++ {
		d[i*n+i] = math.Inf(1)
	}
	size := w.Int32(n)
	defer w.PutInt32(size)
	// dead marks merged-away matrix slots; a cleared bitset means all n
	// initial clusters are live.
	dead := w.Bitset(n)
	defer w.PutBitset(dead)
	for i := range size {
		size[i] = 1
	}
	base := len(out)
	chainBuf := w.Int32(n)
	defer w.PutInt32(chainBuf)
	chain := chainBuf[:0]
	inChain := w.Bitset(n)
	defer w.PutBitset(inChain)
	// The Lance-Williams row update lives in a single state struct so the
	// merge loop passes one long-lived method value to the pool instead of
	// allocating a closure (and boxed captures) per merge. Small matrices
	// skip the pool dispatch entirely.
	lw := lwState{d: d, dead: dead, linkage: linkage, n: n}
	var lwApply func(lo, hi int)
	parallelUpdate := n > lwSeqCutoff && pool.Workers() > 1
	if parallelUpdate {
		lwApply = lw.update
	}
	remaining := n
	for remaining > 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(chain) == 0 {
			for i := 0; i < n; i++ {
				if !dead.Test(int32(i)) {
					chain = append(chain, int32(i))
					inChain.Set(int32(i))
					break
				}
			}
		}
		for {
			x := chain[len(chain)-1]
			// Nearest active neighbor of x; prefer the previous chain
			// element on ties so reciprocal pairs terminate. Dead slots and
			// the diagonal hold +Inf, so the scan is the unrolled unmasked
			// min+argmin kernel over the whole row.
			var prev int32 = -1
			if len(chain) > 1 {
				prev = chain[len(chain)-2]
			}
			row := d[int(x)*n : int(x)*n+n]
			bestD, bi := kernel.MinIdx(row)
			best := int32(bi)
			if bi < 0 {
				// Every live neighbor sits at +Inf — possible when the input
				// dissimilarities (or overflowed Lance-Williams updates)
				// saturate. All partners are then equally good; take the
				// smallest live id other than x so the chain stays total and
				// the merge order deterministic.
				for y := int32(0); y < int32(n); y++ {
					if y != x && !dead.Test(y) {
						best = y
						break
					}
				}
				bestD = math.Inf(1)
			}
			if prev >= 0 && row[prev] <= bestD {
				best, bestD = prev, row[prev]
			}
			// On an asymmetric matrix (caller dissimilarities, or DBHT's
			// shortest-path distances, which are not bitwise symmetric) the
			// nearest neighbours can close a longer cycle back into the
			// chain, which a symmetric matrix never does. Merge x with best
			// then too and restart the chain, so the loop always ends.
			cycle := best != prev && inChain.Test(best)
			if best == prev || cycle {
				// Reciprocal nearest neighbors (or a closed cycle): merge x
				// and best.
				if cycle {
					for _, v := range chain {
						inChain.Clear(v)
					}
					chain = chain[:0]
				} else {
					inChain.Clear(prev)
					inChain.Clear(x)
					chain = chain[:len(chain)-2]
				}
				a, b := best, x
				if a > b {
					a, b = b, a
				}
				out = append(out, dendro.Merge{A: a, B: b, Height: bestD})
				// Merge b into a with the Lance-Williams update.
				lw.ma, lw.mb = a, b
				lw.sa, lw.sb = float64(size[a]), float64(size[b])
				lw.na, lw.nb = int(a)*n, int(b)*n
				if parallelUpdate {
					pool.ForBlocked(ctx, n, lwSeqCutoff, lwApply)
				} else {
					lw.update(0, n)
				}
				// The update skips rows a and b, so a's own slot for the dead
				// column is poisoned here.
				d[int(a)*n+int(b)] = math.Inf(1)
				size[a] += size[b]
				dead.Set(b)
				remaining--
				break
			}
			chain = append(chain, best)
			inChain.Set(best)
		}
	}
	labelInPlace(w, n, out[base:])
	return out, nil
}

// labelInPlace converts NN-chain merges (over matrix slots, stored in A/B)
// into dendrogram node ids by sorting on merge height and relabeling with
// union-find, exactly as scipy's linkage does. Reducibility of the supported
// linkages guarantees the sorted order is a valid agglomeration order.
func labelInPlace(w *ws.Workspace, n int, merges []dendro.Merge) {
	slices.SortStableFunc(merges, func(a, b dendro.Merge) int {
		if a.Height < b.Height {
			return -1
		}
		if a.Height > b.Height {
			return 1
		}
		return 0
	})
	parent := w.Int32(n + len(merges))
	defer w.PutInt32(parent)
	for i := range parent {
		parent[i] = int32(i)
	}
	for i := range merges {
		// Each matrix slot is a leaf id, so find on the slot resolves to the
		// dendrogram node currently containing that leaf.
		m := &merges[i]
		self := int32(n + i)
		na := ufFind(parent, m.A)
		nb := ufFind(parent, m.B)
		m.A, m.B = na, nb
		parent[na] = self
		parent[nb] = self
	}
}

// ufFind is iterative path-halving union-find lookup (a plain function, not
// a closure, so labelInPlace stays allocation-free).
func ufFind(parent []int32, x int32) int32 {
	for parent[x] != x {
		parent[x] = parent[parent[x]]
		x = parent[x]
	}
	return x
}
