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

// BenchmarkSyrkBackends sweeps the dispatched SYRK (AVX2 where the host and
// build allow, scalar otherwise — see ISA()) against the always-compiled
// scalar core at the pipeline's benchmark widths. Interleaved in one process
// so the vector-vs-scalar ratio is insensitive to machine drift between
// runs; the T sweep shows the ratio holding across panel counts (T=4096 is
// 8 folded KC-panels).
func BenchmarkSyrkBackends(b *testing.B) {
	const n = 512
	for _, l := range []int{256, 1024, 4096} {
		z := randZ(n, l, 1)
		c := make([]float64, n*n)
		bytes := int64(n) * int64(n) / 2 * int64(l) * 8
		b.Run(fmt.Sprintf("%s/n=%d/T=%d", ISA(), n, l), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				SyrkUpperRange(z, n, l, c, 0, n, 0, l, true)
			}
		})
		b.Run(fmt.Sprintf("scalar-ref/n=%d/T=%d", n, l), func(b *testing.B) {
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				syrkUpperRangeGo(z, n, l, c, 0, n, 0, l, true)
			}
		})
	}
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
