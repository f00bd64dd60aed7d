//go:build !purego

// AVX2 microkernels. Determinism rules, enforced by the oracle tests:
//
//   - No FMA anywhere: every multiply-add is VMULPD then VADDPD, two
//     roundings, exactly like the scalar `c += a*b`.
//   - Vector lanes lie across independent output entries (columns j), never
//     across the time index t, so each lane is the same ascending-t chain
//     the scalar oracle computes.
//   - Operand order mirrors the scalar source order (src1 of every
//     VADDPD/VSUBPD/VMULPD is the operand the scalar code names first), so
//     NaN payload propagation matches bit-for-bit.
//   - VMAXPD/VMINPD are used with the "returns src2 on NaN / on equal"
//     Intel semantics arranged so NaN inputs and signed zeros take the same
//     path as the scalar comparisons they replace.
//
// Note on operand order below: Plan9 lists operands reversed from Intel
// (Intel "VOP dst, src1, src2" is written "VOP src2, src1, dst"), and a
// compare immediate comes first.

#include "textflag.h"

DATA one64<>+0(SB)/8, $0x3FF0000000000000 // 1.0
GLOBL one64<>(SB), RODATA|NOPTR, $8

DATA negone64<>+0(SB)/8, $0xBFF0000000000000 // -1.0
GLOBL negone64<>(SB), RODATA|NOPTR, $8

DATA two64<>+0(SB)/8, $0x4000000000000000 // 2.0
GLOBL two64<>(SB), RODATA|NOPTR, $8

DATA inf64<>+0(SB)/8, $0x7FF0000000000000 // +Inf
GLOBL inf64<>(SB), RODATA|NOPTR, $8

DATA absmask64<>+0(SB)/8, $0x7FFFFFFFFFFFFFFF // clears the sign bit
GLOBL absmask64<>(SB), RODATA|NOPTR, $8

DATA four64<>+0(SB)/8, $4 // int64 4
GLOBL four64<>(SB), RODATA|NOPTR, $8

DATA idx0123<>+0(SB)/8, $0
DATA idx0123<>+8(SB)/8, $1
DATA idx0123<>+16(SB)/8, $2
DATA idx0123<>+24(SB)/8, $3
GLOBL idx0123<>(SB), RODATA|NOPTR, $32

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func syrkTile4x8(a *float64, lda8 uintptr, bp *float64, kc int, c *float64, ldc8 uintptr, add bool)
//
// One 4-row × 8-column tile of one T-panel's partial sum: for each of kc
// time steps, broadcast a[r][t] for the four A rows and multiply-add against
// the packed 8-column B sliver bp[t*8 : t*8+8]. Eight YMM accumulators hold
// the tile (row r in Y(2r), Y(2r+1)); each lane is one C entry's ascending-t
// chain from zero. The epilogue stores (first panel) or folds `c += acc`
// (later panels) with c as the first add operand, matching the scalar fold.
TEXT ·syrkTile4x8(SB), NOSPLIT, $0-49
	MOVQ a+0(FP), DI
	MOVQ lda8+8(FP), R8
	LEAQ (R8)(R8*1), R9  // 2*lda8
	LEAQ (R9)(R8*1), R10 // 3*lda8
	MOVQ bp+16(FP), SI
	MOVQ kc+24(FP), CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

tileloop:
	VMOVUPD (SI), Y8   // B[t][0:4]
	VMOVUPD 32(SI), Y9 // B[t][4:8]

	VBROADCASTSD (DI), Y10 // a row 0
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y0, Y0
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y1, Y1

	VBROADCASTSD (DI)(R8*1), Y10 // a row 1
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y2, Y2
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y3, Y3

	VBROADCASTSD (DI)(R9*1), Y10 // a row 2
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y4, Y4
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y5, Y5

	VBROADCASTSD (DI)(R10*1), Y10 // a row 3
	VMULPD Y8, Y10, Y11
	VADDPD Y11, Y6, Y6
	VMULPD Y9, Y10, Y11
	VADDPD Y11, Y7, Y7

	ADDQ $8, DI
	ADDQ $64, SI
	DECQ CX
	JNZ  tileloop

	MOVQ c+32(FP), DX
	MOVQ ldc8+40(FP), R11
	LEAQ (DX)(R11*2), BX // c row 2
	MOVBLZX add+48(FP), AX
	TESTL AX, AX
	JZ   tilestore

	// Fold: c += acc, with the existing C value as the first add operand.
	VMOVUPD (DX), Y8
	VADDPD Y0, Y8, Y0
	VMOVUPD 32(DX), Y8
	VADDPD Y1, Y8, Y1
	VMOVUPD (DX)(R11*1), Y8
	VADDPD Y2, Y8, Y2
	VMOVUPD 32(DX)(R11*1), Y8
	VADDPD Y3, Y8, Y3
	VMOVUPD (BX), Y8
	VADDPD Y4, Y8, Y4
	VMOVUPD 32(BX), Y8
	VADDPD Y5, Y8, Y5
	VMOVUPD (BX)(R11*1), Y8
	VADDPD Y6, Y8, Y6
	VMOVUPD 32(BX)(R11*1), Y8
	VADDPD Y7, Y8, Y7

tilestore:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, (DX)(R11*1)
	VMOVUPD Y3, 32(DX)(R11*1)
	VMOVUPD Y4, (BX)
	VMOVUPD Y5, 32(BX)
	VMOVUPD Y6, (BX)(R11*1)
	VMOVUPD Y7, 32(BX)(R11*1)
	VZEROUPPER
	RET

// func rank1UpdSeg(row, x *float64, xi float64, q int)
//
// row[j] += xi*x[j] over q (multiple of 4) contiguous entries.
TEXT ·rank1UpdSeg(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), DI
	MOVQ x+8(FP), SI
	VBROADCASTSD xi+16(FP), Y0
	MOVQ q+24(FP), CX
	SHRQ $2, CX

updloop:
	VMOVUPD (SI), Y1
	VMULPD  Y1, Y0, Y1 // xi * x[j]
	VMOVUPD (DI), Y2
	VADDPD  Y1, Y2, Y2 // row + prod
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     updloop
	VZEROUPPER
	RET

// func rank1RollSeg(row, xNew, xOld *float64, a, b float64, q int)
//
// row[j] += a*xNew[j] − b*xOld[j] over q (multiple of 4) contiguous entries.
TEXT ·rank1RollSeg(SB), NOSPLIT, $0-48
	MOVQ row+0(FP), DI
	MOVQ xNew+8(FP), SI
	MOVQ xOld+16(FP), DX
	VBROADCASTSD a+24(FP), Y0
	VBROADCASTSD b+32(FP), Y1
	MOVQ q+40(FP), CX
	SHRQ $2, CX

rollloop:
	VMOVUPD (SI), Y2
	VMULPD  Y2, Y0, Y2 // a * xNew[j]
	VMOVUPD (DX), Y3
	VMULPD  Y3, Y1, Y3 // b * xOld[j]
	VSUBPD  Y3, Y2, Y2 // a*xNew − b*xOld
	VMOVUPD (DI), Y4
	VADDPD  Y2, Y4, Y4 // row + delta
	VMOVUPD Y4, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	DECQ    CX
	JNZ     rollloop
	VZEROUPPER
	RET

// func dissimSeg(dst, src *float64, count int)
//
// dst[j] = sqrt(max(0, 2*(1−src[j]))) over count (multiple of 4) entries.
// VMAXPD with the value as Intel-src2 keeps NaN inputs NaN, exactly like the
// scalar `if v < 0` guard which a NaN falls through; VSQRTPD is correctly
// rounded, so bits match math.Sqrt.
TEXT ·dissimSeg(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ count+16(FP), CX
	SHRQ $2, CX
	VBROADCASTSD one64<>(SB), Y0
	VBROADCASTSD two64<>(SB), Y1
	VXORPD Y7, Y7, Y7

dissimloop:
	VMOVUPD (SI), Y2
	VSUBPD  Y2, Y0, Y2 // 1 − src
	VMULPD  Y2, Y1, Y2 // 2 * (1 − src)
	VMAXPD  Y2, Y7, Y2 // max(0, v), NaN passes through
	VSQRTPD Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     dissimloop
	VZEROUPPER
	RET

// func minIdxSeg(row *float64, count int, outV *[4]float64, outI *[4]int64)
//
// Four-lane strict-less minimum scan over count (multiple of 4) entries:
// lane k tracks indices ≡ k (mod 4), value +Inf / index −1 when the lane
// never won — the same lane protocol as the scalar MinIdx, whose merge code
// consumes the outputs. VCMPPD LT_OQ makes NaN lose every comparison, like
// the scalar `v < m`.
TEXT ·minIdxSeg(SB), NOSPLIT, $0-32
	MOVQ row+0(FP), SI
	MOVQ count+8(FP), CX
	SHRQ $2, CX
	VBROADCASTSD inf64<>(SB), Y0  // lane minima, +Inf
	VPCMPEQD Y1, Y1, Y1           // lane argmin indices, all-ones = −1
	VMOVDQU idx0123<>(SB), Y2     // current indices [t, t+1, t+2, t+3]
	VPBROADCASTQ four64<>(SB), Y3 // index increment

minloop:
	VMOVUPD (SI), Y4
	VCMPPD $0x11, Y0, Y4, Y5 // v < m, ordered (NaN → false)
	VBLENDVPD Y5, Y4, Y0, Y0 // m   = won ? v : m
	VBLENDVPD Y5, Y2, Y1, Y1 // idx = won ? t+k : idx
	VPADDQ Y3, Y2, Y2
	ADDQ $32, SI
	DECQ CX
	JNZ  minloop

	MOVQ outV+16(FP), DI
	VMOVUPD Y0, (DI)
	MOVQ outI+24(FP), DI
	VMOVDQU Y1, (DI)
	VZEROUPPER
	RET

// func finishSeg(rowp, mirrorp *float64, mstride uintptr, mup, invp *float64, zerop *int32, si, invi float64, count int)
//
// The Pearson finish over count (multiple of 4) strictly-upper columns of
// one row: p = ((row[j] − si·mu[j]) · invi) · inv[j], then the pinning
// ladder in scalar order — zero-variance → 0, clamp to [−1, 1], NaN → 0 —
// then the mirror write sim[j][i]. Mirror scatters go through a stack spill
// and GP stores (stride mstride bytes down column i). The clamp is
// VMAXPD/VMINPD with p as Intel-src2 so NaN survives to the VANDNPD mask
// kill, and ±0 and exact ±1 take the scalar path's values.
TEXT ·finishSeg(SB), NOSPLIT, $32-72
	MOVQ rowp+0(FP), DI
	MOVQ mirrorp+8(FP), R8
	MOVQ mstride+16(FP), R9
	MOVQ mup+24(FP), SI
	MOVQ invp+32(FP), BX
	MOVQ zerop+40(FP), DX
	VBROADCASTSD si+48(FP), Y12
	VBROADCASTSD invi+56(FP), Y13
	MOVQ count+64(FP), CX
	SHRQ $2, CX
	VBROADCASTSD one64<>(SB), Y14
	VBROADCASTSD negone64<>(SB), Y15
	VXORPD Y11, Y11, Y11

finloop:
	VMOVUPD (SI), Y0   // mu[j]
	VMULPD  Y0, Y12, Y0 // si * mu[j]
	VMOVUPD (DI), Y1   // row[j]
	VSUBPD  Y0, Y1, Y1 // row − si*mu
	VMULPD  Y13, Y1, Y1 // · invi
	VMOVUPD (BX), Y2
	VMULPD  Y2, Y1, Y1 // · inv[j]  = p

	VCMPPD  $0x3, Y1, Y1, Y2 // NaN mask
	VMAXPD  Y1, Y15, Y1      // max(−1, p), NaN passes
	VMINPD  Y1, Y14, Y1      // min(1, ·), NaN passes
	VANDNPD Y1, Y2, Y1       // NaN → 0
	VPMOVSXDQ (DX), Y3       // zero[j] int32 → int64
	VPCMPEQQ Y11, Y3, Y3     // keep mask: zero[j] == 0
	VANDPD  Y3, Y1, Y1       // zero-variance → 0

	VMOVUPD Y1, (DI)
	VMOVUPD Y1, spill-32(SP)
	MOVQ spill-32(SP), R12
	MOVQ R12, (R8)
	MOVQ spill-24(SP), R12
	MOVQ R12, (R8)(R9*1)
	LEAQ (R8)(R9*2), R13
	MOVQ spill-16(SP), R12
	MOVQ R12, (R13)
	MOVQ spill-8(SP), R12
	MOVQ R12, (R13)(R9*1)
	LEAQ (R13)(R9*2), R8 // mirror down 4 rows

	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $16, DX
	DECQ CX
	JNZ  finloop
	VZEROUPPER
	RET

// func driftSeg(rowp, refp, mup, invp *float64, zerop *int32, si, invi, acc float64, count int) float64
//
// The drift gate's scan over count (multiple of 4) strictly-upper columns of
// one row: p is finishSeg's per-entry arithmetic and pinning ladder, in the
// same operation and operand order, then d = |p − ref[j]| (VANDPD clears the
// sign bit, exactly the scalar −d for d < 0) and a per-lane running maximum
// seeded with acc. The maximum is VMAXPD with the running value as
// Intel-src2, so a NaN d (from a NaN ref entry) returns the running value —
// the scalar `d > d0` a NaN fails — and so does a tie of zeros. acc is never
// NaN and never negative, so the lane fold at the end is order-free: the
// result is the scalar core's bits.
TEXT ·driftSeg(SB), NOSPLIT, $0-80
	MOVQ rowp+0(FP), DI
	MOVQ refp+8(FP), R8
	MOVQ mup+16(FP), SI
	MOVQ invp+24(FP), BX
	MOVQ zerop+32(FP), DX
	VBROADCASTSD si+40(FP), Y12
	VBROADCASTSD invi+48(FP), Y13
	VBROADCASTSD acc+56(FP), Y10 // running maxima, every lane from acc
	MOVQ count+64(FP), CX
	SHRQ $2, CX
	VBROADCASTSD one64<>(SB), Y14
	VBROADCASTSD negone64<>(SB), Y15
	VBROADCASTSD absmask64<>(SB), Y9
	VXORPD Y11, Y11, Y11

driftloop:
	VMOVUPD (SI), Y0    // mu[j]
	VMULPD  Y0, Y12, Y0 // si * mu[j]
	VMOVUPD (DI), Y1    // row[j]
	VSUBPD  Y0, Y1, Y1  // row − si*mu
	VMULPD  Y13, Y1, Y1 // · invi
	VMOVUPD (BX), Y2
	VMULPD  Y2, Y1, Y1  // · inv[j]  = p

	VCMPPD  $0x3, Y1, Y1, Y2 // NaN mask
	VMAXPD  Y1, Y15, Y1      // max(−1, p), NaN passes
	VMINPD  Y1, Y14, Y1      // min(1, ·), NaN passes
	VANDNPD Y1, Y2, Y1       // NaN → 0
	VPMOVSXDQ (DX), Y3       // zero[j] int32 → int64
	VPCMPEQQ Y11, Y3, Y3     // keep mask: zero[j] == 0
	VANDPD  Y3, Y1, Y1       // zero-variance → 0

	VMOVUPD (R8), Y4
	VSUBPD  Y4, Y1, Y1   // p − ref[j]
	VANDPD  Y9, Y1, Y1   // |p − ref[j]|
	VMAXPD  Y10, Y1, Y10 // max(|d|, run), NaN |d| keeps run

	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $16, DX
	DECQ CX
	JNZ  driftloop

	VEXTRACTF128 $1, Y10, X0
	VMAXPD  X0, X10, X10 // lanes 0|2 and 1|3
	VPERMILPD $1, X10, X0
	VMAXSD  X0, X10, X10
	VMOVSD  X10, ret+72(FP)
	VZEROUPPER
	RET

// func relaxSweepAVX2(d *float64, off, adj *int32, wt *float64, n, m int, back bool) int
//
// One RelaxSweep over n positions: position p's eight labels sit at
// d[8p : 8p+8] (Y0 lanes 0–3, Y1 lanes 4–7) and take, arc by arc, the
// minimum with d[8·adj[e] : 8·adj[e]+8] + wt[e]. The add keeps the scalar
// operand order (label, then weight); VMINPD has the candidate as Intel-src1
// and the running label as src2, so an equal or NaN candidate keeps the
// label's bits, like the scalar `x < l`. A label's bits change only when it
// is lowered, so the XOR of old and new bits, OR-ed over the sweep, is the
// changed flag. Every slot range is checked against m (the arc arrays'
// length) and every arc tail against n before anything is read through it.
// Returns 0 (nothing lowered), 1 (something lowered) or −1 (bad arc).
TEXT ·relaxSweepAVX2(SB), NOSPLIT, $0-64
	MOVQ d+0(FP), DI
	MOVQ off+8(FP), R8
	MOVQ adj+16(FP), R9
	MOVQ wt+24(FP), R10
	MOVQ n+32(FP), R11
	MOVQ m+40(FP), R12
	MOVQ R11, BX // positions left
	XORQ CX, CX  // p
	MOVQ $1, R13 // step
	MOVBLZX back+48(FP), AX
	TESTL AX, AX
	JZ   relaxstart
	LEAQ -1(R11), CX
	MOVQ $-1, R13

relaxstart:
	VXORPD Y15, Y15, Y15 // OR of changed label bits

relaxpos:
	MOVQ CX, AX
	SHLQ $6, AX // byte offset of position p's labels
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	MOVLQSX (R8)(CX*4), SI  // lo
	MOVLQSX 4(R8)(CX*4), DX // hi
	CMPQ SI, DX
	JGE  relaxstore // no in-arcs
	CMPQ DX, R12
	JHI  relaxbad   // hi > m (or negative)
	TESTQ SI, SI
	JS   relaxbad   // lo < 0

relaxarc:
	MOVLQSX (R9)(SI*4), R14 // tail position
	CMPQ R14, R11
	JCC  relaxbad           // unsigned ≥ n
	SHLQ $6, R14
	VBROADCASTSD (R10)(SI*8), Y3 // w
	VMOVUPD (DI)(R14*1), Y4
	VADDPD  Y3, Y4, Y4 // d[tail] + w
	VMINPD  Y0, Y4, Y0 // x < label ? x : label
	VMOVUPD 32(DI)(R14*1), Y5
	VADDPD  Y3, Y5, Y5
	VMINPD  Y1, Y5, Y1
	INCQ SI
	CMPQ SI, DX
	JLT  relaxarc

relaxstore:
	VXORPD  (DI)(AX*1), Y0, Y6
	VORPD   Y6, Y15, Y15
	VXORPD  32(DI)(AX*1), Y1, Y6
	VORPD   Y6, Y15, Y15
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	ADDQ R13, CX
	DECQ BX
	JNZ  relaxpos

	XORQ AX, AX
	VPTEST Y15, Y15
	SETNE AL
	MOVQ AX, ret+56(FP)
	VZEROUPPER
	RET

relaxbad:
	MOVQ $-1, ret+56(FP)
	VZEROUPPER
	RET
