package kernel

import (
	"fmt"
	"math/rand"
	"testing"
)

func randZ(n, l int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	z := make([]float64, n*l)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	return z
}

// BenchmarkSyrkUpper measures the blocked kernel against the pairwise dot
// loop it replaced, at the pipeline's benchmark shape.
func BenchmarkSyrkUpper(b *testing.B) {
	const n, l = 512, 1024
	z := randZ(n, l, 1)
	c := make([]float64, n*n)
	b.SetBytes(int64(n) * int64(n) / 2 * int64(l) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyrkUpperRange(z, n, l, c, 0, n, 0, l, true)
	}
}

func BenchmarkSyrkPairwiseDotRef(b *testing.B) {
	const n, l = 512, 1024
	z := randZ(n, l, 1)
	c := make([]float64, n*n)
	b.SetBytes(int64(n) * int64(n) / 2 * int64(l) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < n; r++ {
			zr := z[r*l : (r+1)*l]
			row := c[r*n : (r+1)*n]
			for j := r; j < n; j++ {
				row[j] = dot4(zr, z[j*l:(j+1)*l])
			}
		}
	}
}

// BenchmarkSyrkBackends runs one band call over the whole SYRK on one core
// through the vector driver with every tile this CPU runs (see
// syrkTileWidths) and through the scalar core, interleaved in one process
// so their ratio is insensitive to machine drift between runs. Each reports
// GFLOP/s (n(n+1)/2·T multiply-adds, two flops each). n=512 sweeps T
// (T=4096 is 8 folded panels); n=1000, T=1024 is the batch-tmfg shape, whose
// packed panel (n·kc·8 = 4 MB at kc=512) is larger than a 2 MB L2. The L1
// sub-benchmarks run one tile over one A quad and one packed sliver of
// kc=128 samples (under 24 KB together), the rate the panel sub-benchmarks
// are a fraction of:
//
//	go test -bench 'SyrkBackends' -run '^$' ./internal/kernel
func BenchmarkSyrkBackends(b *testing.B) {
	for _, sh := range []struct{ n, l int }{{512, 256}, {512, 1024}, {512, 4096}, {1000, 1024}} {
		n, l := sh.n, sh.l
		z := randZ(n, l, 1)
		c := make([]float64, n*n)
		flops := float64(n*(n+1)/2) * float64(l) * 2
		for _, w := range syrkTileWidths() {
			b.Run(fmt.Sprintf("tile4x%d/n=%d/T=%d", w, n, l), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					syrkUpperRangeVec(w, z, n, l, c, 0, n, 0, l, true)
				}
				reportGFLOPS(b, flops)
			})
		}
		b.Run(fmt.Sprintf("scalar/n=%d/T=%d", n, l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				syrkUpperRangeGo(z, n, l, c, 0, n, 0, l, true)
			}
			reportGFLOPS(b, flops)
		})
	}
	const kc = 128
	for _, w := range syrkTileWidths() {
		b.Run(fmt.Sprintf("tile4x%d/L1/kc=%d", w, kc), func(b *testing.B) {
			a := randZ(4, kc, 2)
			bp := randZ(w, kc, 3) // a packed sliver: any values will do
			c := make([]float64, 4*w)
			for i := 0; i < b.N; i++ {
				syrkTile(w, &a[0], kc*8, &bp[0], kc, &c[0], uintptr(w*8), false)
			}
			reportGFLOPS(b, float64(4*w*kc*2))
		})
	}
}

func reportGFLOPS(b *testing.B, flopsPerOp float64) {
	b.ReportMetric(flopsPerOp*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// dot4 is the 4-way unrolled pairwise dot the matrix package used before the
// blocked kernel; kept here as the benchmark reference.
func dot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	t := 0
	for ; t+4 <= len(a); t += 4 {
		s0 += a[t] * b[t]
		s1 += a[t+1] * b[t+1]
		s2 += a[t+2] * b[t+2]
		s3 += a[t+3] * b[t+3]
	}
	s := (s0 + s1) + (s2 + s3)
	for ; t < len(a); t++ {
		s += a[t] * b[t]
	}
	return s
}
