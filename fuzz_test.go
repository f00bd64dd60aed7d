package pfg

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// fuzzFloats returns a generator of float64s read from a fuzz payload: each
// value is 8 raw bytes reinterpreted as float64, cycling when the payload is
// short, so the values are arbitrary — non-finite, subnormal, negative, huge.
func fuzzFloats(data []byte) func() float64 {
	pos := 0
	var buf [8]byte
	return func() float64 {
		for b := range buf {
			if len(data) == 0 {
				buf[b] = byte(pos * 31)
			} else {
				buf[b] = data[pos%len(data)]
			}
			pos++
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
}

// fuzzSym builds an n×n symmetric matrix from a fuzz payload: upper-triangle
// entries are drawn from fuzzFloats and mirrored, so the input is symmetric
// by construction but otherwise arbitrary — non-finite values, non-metric
// dissimilarities, out-of-range "correlations", constant rows.
func fuzzSym(n int, data []byte) *Matrix {
	m := &Matrix{N: n, Data: make([]float64, n*n)}
	next := fuzzFloats(data)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := next()
			m.Data[i*n+j] = v
			m.Data[j*n+i] = v
		}
	}
	return m
}

// fuzzDis builds a caller dissimilarity from a fuzz payload: all n² entries
// are drawn from fuzzFloats read backwards, so it differs from fuzzSym's
// matrix and need not be symmetric.
func fuzzDis(n int, data []byte) *Matrix {
	m := &Matrix{N: n, Data: make([]float64, n*n)}
	rev := slices.Clone(data)
	slices.Reverse(rev)
	next := fuzzFloats(rev)
	for i := range m.Data {
		m.Data[i] = next()
	}
	return m
}

// FuzzClusterMatrix: arbitrary symmetric similarities through every method
// must either be rejected with an error (non-finite entries, negative
// shortest-path weights, undersized inputs) or produce a dendrogram that cuts
// cleanly — never panic and never hang. When methodRaw's high bit is set the
// call also passes a caller dissimilarity built from the payload (fuzzDis,
// not necessarily symmetric) instead of deriving it. Workers:1 keeps each
// execution deterministic, so any crasher the fuzzer finds minimizes
// reproducibly.
func FuzzClusterMatrix(f *testing.F) {
	f.Add(uint8(6), uint8(0), uint8(2), []byte{})
	f.Add(uint8(4), uint8(1), uint8(1), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // NaN
	f.Add(uint8(8), uint8(2), uint8(3), []byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(12), uint8(3), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), uint8(0), uint8(1), []byte{7}) // below the TMFG minimum: must error
	f.Add(uint8(16), uint8(0), uint8(2), []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x47})
	// Caller dissimilarities: asymmetric and non-negative for both DBHT
	// methods, negative (rejected), and asymmetric for complete linkage.
	f.Add(uint8(10), uint8(0x80), uint8(1), []byte{0x3f, 0x31, 0x22, 0x13, 0x24, 0x35, 0x26, 0x17, 0x38})
	f.Add(uint8(7), uint8(0x81), uint8(0), []byte{0x3f, 0x31, 0x22, 0x13, 0x24, 0x35, 0x26, 0x17, 0x38})
	f.Add(uint8(9), uint8(0x81), uint8(1), []byte{0, 0, 0, 0, 0, 0, 0xe0, 0xbf, 1, 2})
	f.Add(uint8(12), uint8(0x82), uint8(0), []byte{0x3f, 0xe0, 0, 0, 0, 0, 0, 0, 0x7f})
	f.Fuzz(func(t *testing.T, nRaw, methodRaw, kRaw uint8, data []byte) {
		n := 2 + int(nRaw)%19 // 2..20: PMFG planarity stays fuzz-speed
		method := Method(int(methodRaw) % 4)
		sim := fuzzSym(n, data)
		var dis *Matrix
		if methodRaw&0x80 != 0 {
			dis = fuzzDis(n, data)
		}
		res, err := ClusterMatrix(sim, dis, Options{
			Method:  method,
			Prefix:  1 + int(kRaw)%3,
			Workers: 1,
		})
		if err != nil {
			return
		}
		k := 1 + int(kRaw)%n
		labels, err := res.Cut(k)
		if err != nil {
			t.Fatalf("accepted input but Cut(%d) failed: %v", k, err)
		}
		if len(labels) != n {
			t.Fatalf("%d labels for %d objects", len(labels), n)
		}
		for i, l := range labels {
			if l < 0 || l >= k {
				t.Fatalf("label[%d] = %d out of [0,%d)", i, l, k)
			}
		}
		if _, err := res.Newick(nil); err != nil {
			t.Fatalf("accepted input but Newick failed: %v", err)
		}
	})
}
