//go:build amd64 && !purego

package kernel

// useAVX2 selects the vector backend for the hot kernels. It is decided once
// at init from CPUID: AVX2 requires the CPU to advertise AVX2
// (CPUID.7.0:EBX[5]) and AVX+OSXSAVE (CPUID.1:ECX[28,27]), and the OS to
// have enabled XMM+YMM state saving (XGETBV(0) & 0x6 == 0x6). Both backends
// produce bit-identical results; the purego build tag removes the vector
// backend at compile time, for debugging and bisecting on the scalar cores.
var useAVX2 = detectAVX2()

// syrkW is the column width of the SYRK tile the vector driver runs: 16
// (syrkTile4x16) when the CPU has AVX-512F (CPUID.7.0:EBX[16]) and the OS
// saves the opmask and full ZMM state (XGETBV(0) & 0xE6 == 0xE6: XMM, YMM,
// opmask, ZMM0–15 upper halves, ZMM16–31), 8 (syrkTile4x8) on other AVX2
// hosts, 0 without AVX2. The 4×16 tile uses only AVX-512F instructions, so
// no other AVX-512 subset is checked. Every other kernel keeps its AVX2 form.
var syrkW = detectSyrkW()

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

func detectSyrkW() int {
	if !useAVX2 {
		return 0
	}
	_, ebx7, _, _ := cpuid(7, 0)
	if xlo, _ := xgetbv(); ebx7&(1<<16) != 0 && xlo&0xE6 == 0xE6 {
		return 16
	}
	return 8
}

// ISA reports the instruction-set backend the kernels were dispatched to at
// init: "avx512" when the SYRK runs the AVX-512 tile (every other kernel
// runs its AVX2 form), "avx2" when the AVX2 kernels are active, "scalar" on
// a CPU without AVX2.
func ISA() string {
	switch syrkW {
	case 16:
		return "avx512"
	case 8:
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
func syrkTile4x16(a *float64, lda8 uintptr, bp *float64, kc int, c *float64, ldc8 uintptr, add bool)

//go:noescape
func rank1UpdSeg(row, x *float64, xi float64, q int)

//go:noescape
func rank1RollSeg(row, xNew, xOld *float64, a, b float64, q int)

//go:noescape
func finishSeg(rowp, mirrorp *float64, mstride uintptr, mup, invp *float64, zerop *int32, si, invi float64, count int)

//go:noescape
func driftSeg(rowp, refp, mup, invp *float64, zerop *int32, si, invi, acc float64, count int) float64

//go:noescape
func minIdxSeg(row *float64, count int, outV *[4]float64, outI *[4]int64)

//go:noescape
func dissimSeg(dst, src *float64, count int)

//go:noescape
func relaxSweepAVX2(d *float64, off, adj *int32, wt *float64, n, m int, back bool) int

// syrkTile runs the 4×w tile kernel.
func syrkTile(w int, a *float64, lda8 uintptr, bp *float64, kc int, c *float64, ldc8 uintptr, add bool) {
	if w == 16 {
		syrkTile4x16(a, lda8, bp, kc, c, ldc8, add)
	} else {
		syrkTile4x8(a, lda8, bp, kc, c, ldc8, add)
	}
}

// finishRowAVX2 runs the vectorized finish transform over columns
// [js, js+q) of row i; q must be a positive multiple of 4. The mirror writes
// scatter down column i with stride n.
func finishRowAVX2(sim []float64, n int, si, invi float64, mu, inv []float64, zero []int32, i, js, q int) {
	finishSeg(&sim[i*n+js], &sim[js*n+i], uintptr(n*8), &mu[js], &inv[js], &zero[js], si, invi, q)
}
