// Package kernel provides the register-tiled, cache-blocked numeric
// primitives under the clustering pipeline's hot loops: a SYRK-style blocked
// Pearson product, a 4-ary implicit heap for Dijkstra, unrolled
// multi-accumulator scan kernels, and the blocked Pearson finish pass.
//
// Every kernel is sequential over an explicit index range so callers drive
// parallelism from an exec.Pool without the kernels knowing about it, and
// every kernel is bit-deterministic: for a fixed input, the floating-point
// result is independent of how the caller partitions the range across
// workers.
//
// Backends. Each hot kernel has a portable scalar implementation (the
// oracle, always compiled) and, on amd64 without the purego build tag, a
// hand-written AVX2 assembly implementation selected once at init by CPUID
// feature detection (see ISA). The vector kernels use separate multiply and
// add instructions — never FMA, whose single rounding would change results —
// and keep every accumulator lane an independent ascending-t chain, so the
// float64 backends are bit-identical to each other by construction (and the
// oracle tests pin it).
package kernel

// SYRK tiling parameters. The scalar micro-kernel computes a 2×4 tile of
// C = Z·Zᵀ: 8 accumulators + 2 a-values + 4 b-values = 14 live float64s, the
// most that fits amd64's 16 SSE registers without spilling under the Go
// compiler. Each a-load is reused 4 times and each b-load twice, cutting the
// loads per multiply-add from 2 (pairwise dot products) to 0.75. The AVX2
// backend widens the tile to 4×8 (8 YMM accumulators over a packed B panel).
const (
	syrkMR = 2 // rows of Z per scalar micro-tile
	syrkNR = 4 // columns of the scalar tile (other rows of Z)

	// syrkKC is the T-panel length: the kp-outer loop keeps a panel of
	// n×syrkKC×8 bytes of Z hot in cache while every row pair of the band
	// re-reads it.
	syrkKC = 512
)

// PanelLen is the T-panel length of the SYRK accumulation: every entry of
// C = Z·Zᵀ is computed as the ascending-panel fold of per-panel partial sums,
//
//	c = (((S₀ + S₁) + S₂) + … )   with   Sₚ = Σ_{t ∈ panel p} zᵢ(t)·zⱼ(t)
//
// where each Sₚ is itself an ascending-t chain accumulated from zero. The
// panel boundaries sit at absolute multiples of PanelLen, so the result is
// independent of how callers partition the work — across row bands AND
// across T-panels — which is what makes both axes of SYRK parallelism
// bit-deterministic in the worker count. The streaming engine folds its
// rank-1 update chain at the same boundaries to stay bit-identical to batch
// while the window fills.
const PanelLen = syrkKC

// RowBandGrain is the recommended minimum band height when callers drive
// SyrkUpperRange over [lo, hi) row bands in parallel. The vector backend
// packs each T-panel's column slivers once per call, so a short band
// repacks the same panel data O(n/band) times over; 128 rows keeps that
// repacking factor at ≈2× while still exposing n/128 chunks for load
// balancing. Purely a performance hint — band partitioning never affects
// output bits (see PanelLen).
const RowBandGrain = 128

// SyrkUpperRange accumulates the column (time) range [k0, k1) of Z into rows
// [i0, i1) of the upper triangle of C, splitting the range at absolute
// multiples of PanelLen and folding the per-panel partial sums in ascending
// order. Z rows are ld apart: row i covers z[i*ld+k0 : i*ld+k1]. When first
// is true the first panel slice overwrites C (and an empty range zeroes the
// band); otherwise every slice accumulates into C. Calling SyrkUpperRange
// once over [0, l) is bit-identical to calling it per panel-aligned
// sub-range with first set only on the slice containing k0 — the invariance
// parallel SYRK is built on.
func SyrkUpperRange(z []float64, n, ld int, c []float64, i0, i1, k0, k1 int, first bool) {
	if useAVX2 {
		syrkUpperRangeAVX2(z, n, ld, c, i0, i1, k0, k1, first)
		return
	}
	syrkUpperRangeGo(z, n, ld, c, i0, i1, k0, k1, first)
}

// syrkUpperRangeGo is the scalar backend of SyrkUpperRange and the oracle
// the vector backends are tested against bit-for-bit.
func syrkUpperRangeGo(z []float64, n, ld int, c []float64, i0, i1, k0, k1 int, first bool) {
	if k0 >= k1 {
		if first {
			for i := i0; i < i1; i++ {
				row := c[i*n : (i+1)*n]
				for j := i; j < n; j++ {
					row[j] = 0
				}
			}
		}
		return
	}
	for kp := k0 - k0%syrkKC; kp < k1; kp += syrkKC {
		a := max(kp, k0)
		b := min(kp+syrkKC, k1)
		store := first && a == k0
		i := i0
		for ; i+syrkMR <= i1; i += syrkMR {
			syrkRowPair(z, n, ld, c, i, a, b-a, store)
		}
		if i < i1 {
			syrkRowSingle(z, n, ld, c, i, a, b-a, store)
		}
	}
}

// syrkRowPair accumulates the column slice [a, a+kc) of Z into C rows i and
// i+1 (upper triangle only), from zeroed accumulators; store selects
// overwrite vs fold-add semantics at the slice end.
func syrkRowPair(z []float64, n, ld int, c []float64, i, a, kc int, store bool) {
	a0 := z[i*ld+a : i*ld+a+kc : i*ld+a+kc]
	a1 := z[(i+1)*ld+a : (i+1)*ld+a+kc : (i+1)*ld+a+kc]
	ci0 := c[i*n : (i+1)*n]
	ci1 := c[(i+1)*n : (i+2)*n]

	// Diagonal corner: c[i][i], c[i][i+1], c[i+1][i+1].
	var d00, d01, d11 float64
	for t := 0; t < kc; t++ {
		av0, av1 := a0[t], a1[t]
		d00 += av0 * av0
		d01 += av0 * av1
		d11 += av1 * av1
	}
	if store {
		ci0[i], ci0[i+1], ci1[i+1] = d00, d01, d11
	} else {
		ci0[i] += d00
		ci0[i+1] += d01
		ci1[i+1] += d11
	}

	// Main 2×4 micro-tiles over j ≥ i+2.
	j := i + 2
	for ; j+syrkNR <= n; j += syrkNR {
		b0 := z[j*ld+a : j*ld+a+kc : j*ld+a+kc]
		b1 := z[(j+1)*ld+a : (j+1)*ld+a+kc : (j+1)*ld+a+kc]
		b2 := z[(j+2)*ld+a : (j+2)*ld+a+kc : (j+2)*ld+a+kc]
		b3 := z[(j+3)*ld+a : (j+3)*ld+a+kc : (j+3)*ld+a+kc]
		var c00, c01, c02, c03, c10, c11, c12, c13 float64
		for t := 0; t < kc; t++ {
			av0, av1 := a0[t], a1[t]
			bv := b0[t]
			c00 += av0 * bv
			c10 += av1 * bv
			bv = b1[t]
			c01 += av0 * bv
			c11 += av1 * bv
			bv = b2[t]
			c02 += av0 * bv
			c12 += av1 * bv
			bv = b3[t]
			c03 += av0 * bv
			c13 += av1 * bv
		}
		if store {
			ci0[j], ci0[j+1], ci0[j+2], ci0[j+3] = c00, c01, c02, c03
			ci1[j], ci1[j+1], ci1[j+2], ci1[j+3] = c10, c11, c12, c13
		} else {
			ci0[j] += c00
			ci0[j+1] += c01
			ci0[j+2] += c02
			ci0[j+3] += c03
			ci1[j] += c10
			ci1[j+1] += c11
			ci1[j+2] += c12
			ci1[j+3] += c13
		}
	}
	// Remainder columns: 2×1 strips.
	for ; j < n; j++ {
		b := z[j*ld+a : j*ld+a+kc : j*ld+a+kc]
		var c0, c1 float64
		for t := 0; t < kc; t++ {
			bv := b[t]
			c0 += a0[t] * bv
			c1 += a1[t] * bv
		}
		if store {
			ci0[j], ci1[j] = c0, c1
		} else {
			ci0[j] += c0
			ci1[j] += c1
		}
	}
}

// syrkRowSingle accumulates the column slice into a single C row i (for
// odd-sized bands), with a 1×4 micro-kernel.
func syrkRowSingle(z []float64, n, ld int, c []float64, i, a, kc int, store bool) {
	av := z[i*ld+a : i*ld+a+kc : i*ld+a+kc]
	ci := c[i*n : (i+1)*n]
	var d float64
	for t := 0; t < kc; t++ {
		v := av[t]
		d += v * v
	}
	if store {
		ci[i] = d
	} else {
		ci[i] += d
	}
	j := i + 1
	for ; j+syrkNR <= n; j += syrkNR {
		b0 := z[j*ld+a : j*ld+a+kc : j*ld+a+kc]
		b1 := z[(j+1)*ld+a : (j+1)*ld+a+kc : (j+1)*ld+a+kc]
		b2 := z[(j+2)*ld+a : (j+2)*ld+a+kc : (j+2)*ld+a+kc]
		b3 := z[(j+3)*ld+a : (j+3)*ld+a+kc : (j+3)*ld+a+kc]
		var c0, c1, c2, c3 float64
		for t := 0; t < kc; t++ {
			v := av[t]
			c0 += v * b0[t]
			c1 += v * b1[t]
			c2 += v * b2[t]
			c3 += v * b3[t]
		}
		if store {
			ci[j], ci[j+1], ci[j+2], ci[j+3] = c0, c1, c2, c3
		} else {
			ci[j] += c0
			ci[j+1] += c1
			ci[j+2] += c2
			ci[j+3] += c3
		}
	}
	for ; j < n; j++ {
		b := z[j*ld+a : j*ld+a+kc : j*ld+a+kc]
		var c0 float64
		for t := 0; t < kc; t++ {
			c0 += av[t] * b[t]
		}
		if store {
			ci[j] = c0
		} else {
			ci[j] += c0
		}
	}
}

// syrkRowRange accumulates the column slice [a, a+kc) into columns [j0, j1)
// of C row i from a zeroed accumulator — the scalar edge path of the AVX2
// driver (diagonal approach strips and n%8 column tails). Its per-entry
// operation sequence is identical to syrkRowSingle's.
func syrkRowRange(z []float64, n, ld int, c []float64, i, a, kc, j0, j1 int, store bool) {
	av := z[i*ld+a : i*ld+a+kc : i*ld+a+kc]
	ci := c[i*n : (i+1)*n]
	for j := j0; j < j1; j++ {
		b := z[j*ld+a : j*ld+a+kc : j*ld+a+kc]
		var acc float64
		if i == j {
			for t := 0; t < kc; t++ {
				v := av[t]
				acc += v * v
			}
		} else {
			for t := 0; t < kc; t++ {
				acc += av[t] * b[t]
			}
		}
		if store {
			ci[j] = acc
		} else {
			ci[j] += acc
		}
	}
}

// AddUpper folds src into dst over rows [i0, i1) of the upper triangle:
// dst[i][j] += src[i][j] for j ≥ i. One rounded add per entry in a fixed
// order, so band partitions do not change any bit; a sequence of AddUpper
// calls in ascending panel order reproduces the SYRK panel fold exactly.
func AddUpper(dst, src []float64, n int, i0, i1 int) {
	for i := i0; i < i1; i++ {
		d := dst[i*n : (i+1)*n : (i+1)*n]
		s := src[i*n : (i+1)*n : (i+1)*n]
		j := i
		for ; j+4 <= n; j += 4 {
			d[j] += s[j]
			d[j+1] += s[j+1]
			d[j+2] += s[j+2]
			d[j+3] += s[j+3]
		}
		for ; j < n; j++ {
			d[j] += s[j]
		}
	}
}
