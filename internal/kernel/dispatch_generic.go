//go:build !amd64 || purego

package kernel

// Scalar-only build: every public kernel runs its portable Go
// implementation. useAVX2 and syrkW are compile-time constants so the
// vector branches in the shared kernel bodies are eliminated entirely, and
// the stubs below (referenced only from those branches) compile away as
// dead code.
const (
	useAVX2 = false
	syrkW   = 0
)

// ISA reports the instruction-set backend the kernels were dispatched to at
// init: "avx512", "avx2" or "scalar". On this build (a non-amd64 platform
// or the purego build tag) it is always "scalar".
func ISA() string { return "scalar" }

func syrkTile(w int, a *float64, lda8 uintptr, bp *float64, kc int, c *float64, ldc8 uintptr, add bool) {
	panic("kernel: no vector backend")
}

func rank1UpdSeg(row, x *float64, xi float64, q int) {
	panic("kernel: no vector backend")
}

func rank1RollSeg(row, xNew, xOld *float64, a, b float64, q int) {
	panic("kernel: no vector backend")
}

func finishRowAVX2(sim []float64, n int, si, invi float64, mu, inv []float64, zero []int32, i, js, q int) {
	panic("kernel: no vector backend")
}

func driftSeg(rowp, refp, mup, invp *float64, zerop *int32, si, invi, acc float64, count int) float64 {
	panic("kernel: no vector backend")
}

func minIdxSeg(row *float64, count int, outV *[4]float64, outI *[4]int64) {
	panic("kernel: no vector backend")
}

func dissimSeg(dst, src *float64, count int) {
	panic("kernel: no vector backend")
}

func relaxSweepAVX2(d *float64, off, adj *int32, wt *float64, n, m int, back bool) int {
	panic("kernel: no vector backend")
}
