package graph

import (
	"context"
	"encoding/binary"
	"math"
	"testing"

	"pfg/internal/exec"
)

// fuzzWeight decodes one non-negative arc weight from the payload: a class
// byte picks zero, a subnormal, a small multiple of 1/16 (for ties), or
// eight raw bytes with the sign cleared (huge values, +Inf; NaN becomes
// +Inf). It returns the weight and the unread rest of the payload.
func fuzzWeight(data []byte) (float64, []byte) {
	if len(data) == 0 {
		return 1, nil
	}
	class, data := data[0], data[1:]
	var b byte
	if len(data) > 0 {
		b = data[0]
	}
	switch class % 4 {
	case 0:
		return 0, data
	case 1:
		return math.SmallestNonzeroFloat64 * float64(b), data[min(1, len(data)):]
	case 2:
		return float64(b) / 16, data[min(1, len(data)):]
	}
	var raw [8]byte
	n := copy(raw[:], data)
	w := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]) &^ (1 << 63))
	if math.IsNaN(w) {
		w = math.Inf(1)
	}
	return w, data[n:]
}

// FuzzAPSP: on any graph of 2–24 vertices with non-negative arc weights
// (independent per direction), the warm-started APSP must equal a
// per-source Dijkstra bit for bit, for one worker and for three, and must
// never panic.
func FuzzAPSP(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 2, 8, 2, 8, 1, 2, 2, 24, 2, 4})
	f.Add(uint8(10), []byte{0, 5, 3, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0, 5, 6, 1, 3, 2, 1, 7, 0, 0})
	f.Add(uint8(22), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add(uint8(7), []byte{0, 1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xdf, 0x7f, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xdf, 0x7f, 1, 2, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xdf, 0x7f, 2, 1})
	f.Fuzz(func(t *testing.T, nRaw uint8, data []byte) {
		n := 2 + int(nRaw)%23
		type arc struct {
			u, v   int32
			uv, vu float64
		}
		var arcs []arc
		seen := make(map[[2]int32]bool)
		for len(data) >= 2 {
			u, v := int32(data[0])%int32(n), int32(data[1])%int32(n)
			data = data[2:]
			var a arc
			a.u, a.v = min(u, v), max(u, v)
			a.uv, data = fuzzWeight(data)
			a.vu, data = fuzzWeight(data)
			if u == v || seen[[2]int32{a.u, a.v}] {
				continue
			}
			seen[[2]int32{a.u, a.v}] = true
			arcs = append(arcs, a)
		}
		edges := make([]Edge, len(arcs))
		for i, a := range arcs {
			edges[i] = Edge{U: a.u, V: a.v, W: a.uv}
		}
		g, err := FromEdgesWS(nil, n, edges)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range arcs {
			g.Weight[g.slot(a.v, a.u)] = a.vu
		}
		want := make([]float64, 0, n*n)
		for src := int32(0); int(src) < n; src++ {
			want = append(want, g.Dijkstra(src, nil)...)
		}
		for _, workers := range []int{1, 3} {
			p := exec.New(workers)
			a, err := g.AllPairsShortestPathsWS(context.Background(), p, nil)
			p.Close()
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range a.Dist {
				if math.Float64bits(d) != math.Float64bits(want[i]) {
					t.Fatalf("workers=%d: dist(%d,%d) = %v, Dijkstra %v", workers, i/n, i%n, d, want[i])
				}
			}
		}
	})
}
