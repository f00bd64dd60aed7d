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
// feature detection (see ISA). On a CPU with AVX-512F the SYRK runs an
// AVX-512 tile instead; every other kernel keeps its AVX2 form. The vector
// kernels use separate multiply and add instructions — never FMA, whose
// single rounding would change results — and keep every accumulator lane an
// independent ascending-t chain, so the float64 backends are bit-identical
// to each other by construction (and the oracle tests pin it).
package kernel

import "sync"

// SYRK tiling parameters. The scalar micro-kernel computes a 2×4 tile of
// C = Z·Zᵀ: 8 accumulators + 2 a-values + 4 b-values = 14 live float64s, the
// most that fits amd64's 16 SSE registers without spilling under the Go
// compiler. Each a-load is reused 4 times and each b-load twice, cutting the
// loads per multiply-add from 2 (pairwise dot products) to 0.75. The vector
// driver (syrkUpperRangeVec) runs a 4×8 AVX2 tile (8 YMM accumulators) or a
// 4×16 AVX-512 tile (8 ZMM accumulators) over packed B slivers.
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
	if syrkW != 0 {
		syrkUpperRangeVec(syrkW, z, n, ld, c, i0, i1, k0, k1, first)
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

// syrkPackPool recycles the packed-B block buffers of the vector SYRK
// driver; concurrent band workers each draw their own buffer.
var syrkPackPool = sync.Pool{New: func() any { return new([]float64) }}

// syrkNC is the width of the column blocks the vector SYRK driver runs its
// row quads over: 256 columns of one packed panel (1 MB at kc=512) stay in
// a 2 MB L2 while every quad of the band passes over them. A multiple of
// every tile width.
const syrkNC = 256

// syrkUpperRangeVec is the vector backend of SyrkUpperRange, running the
// 4×w tile (w = 8 or 16, see syrkW). It keeps the exact per-entry semantics
// of the scalar oracle — every C entry is an independent ascending-t
// multiply-then-add chain per panel, folded across panels in ascending
// order — and changes only the schedule. The band's row quads run over one
// syrkNC-column block of each panel at a time, its columns packed once,
// just before, into w-column slivers (a zero-padded tail sliver when
// n%w ≠ 0).
// Each lane of a tile is one entry's chain; a sliver that crosses a quad's
// diagonal, and the tail sliver, run through the same tile into a stack
// scratch, of which only the entries on or above the diagonal and left of n
// are stored or folded into C. Rows left over after the last quad run the
// scalar core.
func syrkUpperRangeVec(w int, z []float64, n, ld int, c []float64, i0, i1, k0, k1 int, first bool) {
	iq := i0 + (i1-i0)&^3 // end of the row quads
	if k0 >= k1 || iq == i0 {
		// No quad, or an empty range (the scalar core also zero-fills an
		// empty first range).
		syrkUpperRangeGo(z, n, ld, c, i0, i1, k0, k1, first)
		return
	}
	sLo, sHi := i0/w, (n+w-1)/w
	pb := syrkPackPool.Get().(*[]float64)
	defer syrkPackPool.Put(pb)
	if need := min(syrkNC, (sHi-sLo)*w) * syrkKC; cap(*pb) < need {
		*pb = make([]float64, need)
	}
	lda8, ldc8 := uintptr(ld*8), uintptr(n*8)
	for kp := k0 - k0%syrkKC; kp < k1; kp += syrkKC {
		a := max(kp, k0)
		kc := min(kp+syrkKC, k1) - a
		store := first && a == k0
		for sb := sLo; sb < sHi; sb += syrkNC / w {
			se := min(sb+syrkNC/w, sHi)
			zp := (*pb)[:(se-sb)*w*kc]
			syrkPack(z, n, ld, a, kc, w, sb, se, zp)
			for i := i0; i < iq && i/w < se; i += 4 {
				ap := &z[i*ld+a]
				diag := (i + 3) / w // last sliver that crosses the quad's diagonal
				for s := max(sb, i/w); s < se; s++ {
					bp := &zp[(s-sb)*w*kc]
					if s <= diag || (s+1)*w > n {
						syrkEdgeTile(w, ap, lda8, bp, kc, c, n, i, s*w, store)
					} else {
						syrkTile(w, ap, lda8, bp, kc, &c[i*n+s*w], ldc8, !store)
					}
				}
			}
		}
	}
	if iq < i1 {
		syrkUpperRangeGo(z, n, ld, c, iq, i1, k0, k1, first)
	}
}

// syrkEdgeTile runs the 4×w tile of rows [i, i+4) and columns [j0, j0+w)
// into a stack scratch, then stores (or folds, c += acc) only the entries
// with j ≥ row and j < n: the sliver crossing the quad's diagonal, or the
// padded tail.
func syrkEdgeTile(w int, a *float64, lda8 uintptr, bp *float64, kc int, c []float64, n, i, j0 int, store bool) {
	var acc [4 * 16]float64
	syrkTile(w, a, lda8, bp, kc, &acc[0], uintptr(w*8), false)
	j1 := min(j0+w, n)
	for r := i; r < i+4; r++ {
		row := c[r*n : (r+1)*n]
		src := acc[(r-i)*w : (r-i+1)*w]
		for j := max(j0, r); j < j1; j++ {
			if store {
				row[j] = src[j-j0]
			} else {
				row[j] += src[j-j0]
			}
		}
	}
}

// syrkZeros stands in for the rows past n in a padded tail sliver.
var syrkZeros [syrkKC]float64

// syrkPack copies the B-operand columns of one T-panel into sliver-major
// layout: zp[(s−s0)·w·kc + t·w + r] = z[(ws+r)·ld + a + t] for the slivers
// s0 ≤ s < s1, with zeros for the rows ws+r ≥ n of the tail sliver, so the
// tile kernel reads w consecutive columns of one time step as one or two
// cache lines. It moves eight rows at a time, each time step's eight values
// one cache line. Pure data movement — no arithmetic, so no rounding to get
// wrong.
func syrkPack(z []float64, n, ld, a, kc, w, s0, s1 int, zp []float64) {
	// row returns slices of length kc; reslicing them to [:kc] below lets
	// the compiler drop the bounds checks of the copy loop.
	row := func(j int) []float64 {
		if j >= n {
			return syrkZeros[:kc]
		}
		return z[j*ld+a : j*ld+a+kc]
	}
	for j0 := s0 * w; j0 < s1*w; j0 += 8 {
		r0, r1, r2, r3 := row(j0)[:kc], row(j0 + 1)[:kc], row(j0 + 2)[:kc], row(j0 + 3)[:kc]
		r4, r5, r6, r7 := row(j0 + 4)[:kc], row(j0 + 5)[:kc], row(j0 + 6)[:kc], row(j0 + 7)[:kc]
		// Group j0 is columns [j0%w, j0%w+8) of sliver j0/w.
		base := (j0/w-s0)*w*kc + j0%w
		dst := zp[base : base+(kc-1)*w+8]
		for t := 0; t < kc; t++ {
			d := dst[t*w : t*w+8 : t*w+8]
			d[0] = r0[t]
			d[1] = r1[t]
			d[2] = r2[t]
			d[3] = r3[t]
			d[4] = r4[t]
			d[5] = r5[t]
			d[6] = r6[t]
			d[7] = r7[t]
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
