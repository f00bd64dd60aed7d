//go:build amd64 && !purego

package kernel

import "sync"

// useAVX2 selects the vector backend for the hot kernels. It is decided once
// at init from CPUID: AVX2 requires the CPU to advertise AVX2
// (CPUID.7.0:EBX[5]) and AVX+OSXSAVE (CPUID.1:ECX[28,27]), and the OS to
// have enabled XMM+YMM state saving (XGETBV(0) & 0x6 == 0x6). Both backends
// produce bit-identical results; the purego build tag removes the vector
// backend at compile time, for debugging and bisecting on the scalar cores.
var useAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xlo, _ := xgetbv(); xlo&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// ISA reports the instruction-set backend the kernels were dispatched to at
// init: "avx2" when the AVX2 microkernels are active, "scalar" on a CPU
// without AVX2.
func ISA() string {
	if useAVX2 {
		return "avx2"
	}
	return "scalar"
}

// cpuid executes the CPUID instruction with the given EAX/ECX inputs.
// Hand-rolled (with xgetbv) so feature detection needs no imports outside
// the standard library.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (the OS-enabled AVX state mask).
// Only called after CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

//go:noescape
func syrkTile4x8(a *float64, lda8 uintptr, bp *float64, kc int, c *float64, ldc8 uintptr, add bool)

//go:noescape
func rank1UpdSeg(row, x *float64, xi float64, q int)

//go:noescape
func rank1RollSeg(row, xNew, xOld *float64, a, b float64, q int)

//go:noescape
func finishSeg(rowp, mirrorp *float64, mstride uintptr, mup, invp *float64, zerop *int32, si, invi float64, count int, disp, dismp *float64)

//go:noescape
func driftSeg(rowp, refp, mup, invp *float64, zerop *int32, si, invi, acc float64, count int) float64

//go:noescape
func minIdxSeg(row *float64, count int, outV *[4]float64, outI *[4]int64)

//go:noescape
func dissimSeg(dst, src *float64, count int)

//go:noescape
func relaxSweepAVX2(d *float64, off, adj *int32, wt *float64, n, m int, back bool) int

// syrkPackPool recycles the packed-B panel buffers of the AVX2 SYRK driver;
// concurrent band workers each draw their own buffer.
var syrkPackPool = sync.Pool{New: func() any { return new([]float64) }}

// syrkUpperRangeAVX2 is the vector backend of SyrkUpperRange. It keeps the
// exact per-entry semantics of the scalar oracle — every C entry is an
// independent ascending-t multiply-then-add chain per panel, folded across
// panels in ascending order — and changes only the schedule: rows are
// processed in quads whose 8-column tiles run as YMM lanes (each lane one
// entry's chain; separate VMULPD+VADDPD, never FMA, so each step rounds
// twice exactly like the scalar `c += a*b`). The B operand is packed once
// per panel into contiguous 8-column slivers so the tile kernel streams it
// linearly. Diagonal approach strips, sub-8 column tails, and leftover rows
// run the scalar edge path, whose per-entry operation sequence is identical.
func syrkUpperRangeAVX2(z []float64, n, ld int, c []float64, i0, i1, k0, k1 int, first bool) {
	tileEnd := n &^ 7
	jT0 := (i0 + 3 + 7) &^ 7
	if k0 >= k1 || i0+4 > i1 || jT0 >= tileEnd {
		// Nothing tileable (tiny band, tiny matrix, or empty range — the
		// scalar path also handles the zero-fill of an empty first range).
		syrkUpperRangeGo(z, n, ld, c, i0, i1, k0, k1, first)
		return
	}
	sLo, sHi := jT0>>3, tileEnd>>3
	pb := syrkPackPool.Get().(*[]float64)
	defer syrkPackPool.Put(pb)
	if need := (sHi - sLo) * syrkKC * 8; cap(*pb) < need {
		*pb = make([]float64, need)
	}
	for kp := k0 - k0%syrkKC; kp < k1; kp += syrkKC {
		a := max(kp, k0)
		b := min(kp+syrkKC, k1)
		store := first && a == k0
		kc := b - a
		zp := (*pb)[:(sHi-sLo)*kc*8]
		syrkPack(z, ld, a, kc, sLo, sHi, zp)
		i := i0
		for ; i+4 <= i1; i += 4 {
			jT := (i + 3 + 7) &^ 7
			if jT >= tileEnd {
				for r := i; r < i+4; r++ {
					syrkRowRange(z, n, ld, c, r, a, kc, r, n, store)
				}
				continue
			}
			for r := i; r < i+4; r++ {
				syrkRowRange(z, n, ld, c, r, a, kc, r, jT, store)
			}
			ap := &z[i*ld+a]
			for j := jT; j < tileEnd; j += 8 {
				syrkTile4x8(ap, uintptr(ld*8), &zp[((j>>3)-sLo)*kc*8], kc, &c[i*n+j], uintptr(n*8), !store)
			}
			if tileEnd < n {
				for r := i; r < i+4; r++ {
					syrkRowRange(z, n, ld, c, r, a, kc, tileEnd, n, store)
				}
			}
		}
		for ; i < i1; i++ {
			syrkRowRange(z, n, ld, c, i, a, kc, i, n, store)
		}
	}
}

// syrkPack copies the B-operand columns of one T-panel into sliver-major
// layout: zp[(s−sLo)·kc·8 + t·8 + r] = z[(8s+r)·ld + a + t], so the tile
// kernel reads 8 consecutive columns of one time step as one cache line
// pair. Pure data movement — no arithmetic, so no rounding to get wrong.
func syrkPack(z []float64, ld, a, kc, sLo, sHi int, zp []float64) {
	for s := sLo; s < sHi; s++ {
		dst := zp[(s-sLo)*kc*8 : (s-sLo+1)*kc*8 : (s-sLo+1)*kc*8]
		base := s * 8 * ld
		r0 := z[base+a : base+a+kc : base+a+kc]
		r1 := z[base+ld+a : base+ld+a+kc : base+ld+a+kc]
		r2 := z[base+2*ld+a : base+2*ld+a+kc : base+2*ld+a+kc]
		r3 := z[base+3*ld+a : base+3*ld+a+kc : base+3*ld+a+kc]
		r4 := z[base+4*ld+a : base+4*ld+a+kc : base+4*ld+a+kc]
		r5 := z[base+5*ld+a : base+5*ld+a+kc : base+5*ld+a+kc]
		r6 := z[base+6*ld+a : base+6*ld+a+kc : base+6*ld+a+kc]
		r7 := z[base+7*ld+a : base+7*ld+a+kc : base+7*ld+a+kc]
		for t := 0; t < kc; t++ {
			d := dst[t*8 : t*8+8 : t*8+8]
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

// finishRowAVX2 runs the vectorized finish transform over columns
// [js, js+q) of row i; q must be a positive multiple of 4. The mirror and
// dissimilarity mirror writes scatter down column i with stride n.
func finishRowAVX2(sim, dis []float64, n int, si, invi float64, mu, inv []float64, zero []int32, i, js, q int) {
	var disp, dismp *float64
	if dis != nil {
		disp = &dis[i*n+js]
		dismp = &dis[js*n+i]
	}
	finishSeg(&sim[i*n+js], &sim[js*n+i], uintptr(n*8), &mu[js], &inv[js], &zero[js], si, invi, q, disp, dismp)
}
