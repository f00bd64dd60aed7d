package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// apollonianCSR returns the pull CSR of a random Apollonian network on
// n ≥ 4 positions, which is the topology of a TMFG: a tetrahedron, then
// each new vertex placed in a random face and joined to its three corners,
// for 3n−6 edges. Each arc gets its own positive weight.
func apollonianCSR(rng *rand.Rand, n int) (off, adj []int32, wt []float64) {
	nbr := make([][]int32, n)
	link := func(a, b int32) {
		nbr[a] = append(nbr[a], b)
		nbr[b] = append(nbr[b], a)
	}
	for a := int32(0); a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			link(a, b)
		}
	}
	faces := [][3]int32{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}}
	for v := int32(4); int(v) < n; v++ {
		i := rng.Intn(len(faces))
		f := faces[i]
		link(v, f[0])
		link(v, f[1])
		link(v, f[2])
		faces[i] = [3]int32{f[0], f[1], v}
		faces = append(faces, [3]int32{f[0], v, f[2]}, [3]int32{v, f[1], f[2]})
	}
	off = make([]int32, n+1)
	for p, ns := range nbr {
		for _, u := range ns {
			adj = append(adj, u)
			wt = append(wt, 0.05+rng.Float64())
		}
		off[p+1] = int32(len(adj))
	}
	return off, adj, wt
}

// BenchmarkRelaxSweep times one batch of eight sources run to its fixed
// point by alternating sweeps, which is what AllPairsShortestPathsWS does
// per batch, on a TMFG-sized CSR (n=1000, 3n−6 edges): the dispatched
// kernel against the scalar core.
func BenchmarkRelaxSweep(b *testing.B) {
	const n = 1000
	off, adj, wt := apollonianCSR(rand.New(rand.NewSource(5)), n)
	d := make([]float64, RelaxLanes*n)
	inf := math.Inf(1)
	for _, side := range []struct {
		name  string
		sweep func(d []float64, off, adj []int32, wt []float64, back bool) bool
	}{{"dispatched", RelaxSweep}, {"scalar", relaxSweepGo}} {
		b.Run(side.name, func(b *testing.B) {
			sweeps := 0
			for b.Loop() {
				for i := range d {
					d[i] = inf
				}
				for k := 0; k < RelaxLanes; k++ {
					d[RelaxLanes*k+k] = 0
				}
				for back := false; ; back = !back {
					sweeps++
					if !side.sweep(d, off, adj, wt, back) {
						break
					}
				}
			}
			b.ReportMetric(float64(sweeps)/float64(b.N), "sweeps/op")
		})
	}
}
