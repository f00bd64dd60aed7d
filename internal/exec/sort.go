package exec

import (
	"context"
	"slices"
)

// sortSeqCutoff is the slice length below which Sort falls back to the
// sequential standard-library sort.
const sortSeqCutoff = 4096

// Sort sorts s in place using less, running a parallel merge sort on the
// pool for large inputs. Like sort.Slice it is not a stable sort. On
// cancellation s may be left partially sorted and ctx.Err() is returned.
func Sort[T any](ctx context.Context, p *Pool, s []T, less func(a, b T) bool) error {
	return SortWithBuf(ctx, p, s, nil, less)
}

// SortWithBuf is Sort with caller-provided merge scratch, for hot paths
// that sort every round and pool their buffers: buf is used as the merge
// area when cap(buf) ≥ len(s), otherwise a scratch slice is allocated as in
// Sort. The contents of buf are unspecified afterwards.
func SortWithBuf[T any](ctx context.Context, p *Pool, s, buf []T, less func(a, b T) bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(s) < sortSeqCutoff || p.workers == 1 {
		sortSeq(s, less)
		return nil
	}
	if cap(buf) >= len(s) {
		buf = buf[:len(s)]
	} else {
		buf = make([]T, len(s))
	}
	mergeSort(ctx, p, s, buf, less, depthFor(p.workers))
	return ctx.Err()
}

// sortSeq is the sequential building block for both the small-input fast
// path and the parallel merge sort's leaves. slices.SortFunc avoids
// sort.Slice's reflection-based swapper and its per-call allocations;
// callers use total orders, so the unstable order is still deterministic.
func sortSeq[T any](s []T, less func(a, b T) bool) {
	slices.SortFunc(s, func(a, b T) int {
		if less(a, b) {
			return -1
		}
		if less(b, a) {
			return 1
		}
		return 0
	})
}

// depthFor returns a recursion depth that yields at least 2*w leaves.
func depthFor(w int) int {
	d := 1
	for leaves := 2; leaves < 2*w; leaves *= 2 {
		d++
	}
	return d
}

// mergeSort sorts s using buf as scratch. depth counts remaining levels of
// parallel recursion; the two halves run as pool tasks.
func mergeSort[T any](ctx context.Context, p *Pool, s, buf []T, less func(a, b T) bool, depth int) {
	if ctx.Err() != nil {
		return
	}
	if len(s) < sortSeqCutoff || depth == 0 {
		sortSeq(s, less)
		return
	}
	mid := len(s) / 2
	p.Do(ctx,
		func() { mergeSort(ctx, p, s[:mid], buf[:mid], less, depth-1) },
		func() { mergeSort(ctx, p, s[mid:], buf[mid:], less, depth-1) },
	)
	if ctx.Err() != nil {
		return
	}
	merge(s[:mid], s[mid:], buf, less)
	copy(s, buf)
}

// merge merges sorted slices a and b into out (len(out) == len(a)+len(b)).
func merge[T any](a, b, out []T, less func(x, y T) bool) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if less(b[j], a[i]) {
			out[k] = b[j]
			j++
		} else {
			out[k] = a[i]
			i++
		}
		k++
	}
	for i < len(a) {
		out[k] = a[i]
		i++
		k++
	}
	for j < len(b) {
		out[k] = b[j]
		j++
		k++
	}
}
