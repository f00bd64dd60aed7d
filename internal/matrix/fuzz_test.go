package matrix

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeries decodes a fuzz payload into an n×l series collection: each
// sample is 8 raw bytes reinterpreted as a float64, so the fuzzer reaches
// NaN, ±Inf, denormals, and huge magnitudes with single-byte mutations; the
// payload is cycled when short.
func fuzzSeries(n, l int, data []byte) [][]float64 {
	series := make([][]float64, n)
	pos := 0
	var buf [8]byte
	next := func() float64 {
		for b := range buf {
			if len(data) == 0 {
				buf[b] = byte(pos)
			} else {
				buf[b] = data[pos%len(data)]
			}
			pos++
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
	for i := range series {
		s := make([]float64, l)
		for t := range s {
			s[t] = next()
		}
		series[i] = s
	}
	return series
}

// FuzzPearson: arbitrary series — including NaN/Inf samples, zero-variance
// rows, huge magnitudes that overflow the moments, and degenerate shapes —
// must either return an error or finite, clamped, symmetric matrices. A
// panic, a NaN leak, or an out-of-range correlation is a bug.
func FuzzPearson(f *testing.F) {
	f.Add(uint8(3), uint8(8), []byte{})
	f.Add(uint8(1), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f})       // +Inf
	f.Add(uint8(2), uint8(4), []byte{1, 0, 0, 0, 0, 0, 0xf0, 0xff})       // -Inf
	f.Add(uint8(4), uint8(5), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}) // NaN-ish
	f.Add(uint8(2), uint8(3), []byte{0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40, 0x40})
	f.Add(uint8(5), uint8(1), []byte{7})  // length-1 series: must error
	f.Add(uint8(0), uint8(9), []byte{})   // no series: must error
	f.Add(uint8(6), uint8(16), []byte{0}) // all-zero (constant) series
	f.Fuzz(func(t *testing.T, nRaw, lRaw uint8, data []byte) {
		n := int(nRaw) % 13
		l := int(lRaw) % 33
		series := fuzzSeries(n, l, data)
		sim, err := pearson(series)
		if err != nil {
			return // rejection is a valid outcome; panics are not
		}
		if sim.N != n {
			t.Fatalf("result is %d×%d for %d series", sim.N, sim.N, n)
		}
		for i := 0; i < n; i++ {
			if sim.At(i, i) != 1 {
				t.Fatalf("diag (%d,%d) = %v", i, i, sim.At(i, i))
			}
			for j := 0; j < n; j++ {
				v := sim.At(i, j)
				if math.IsNaN(v) || v < -1 || v > 1 {
					t.Fatalf("corr(%d,%d) = %v out of [-1,1]", i, j, v)
				}
				if v != sim.At(j, i) {
					t.Fatalf("asymmetric at (%d,%d)", i, j)
				}
			}
		}
		dis := dissimilarity(sim)
		for i, v := range dis.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("dissimilarity[%d] = %v", i, v)
			}
		}
	})
}
