package kernel

// RelaxLanes is the number of sources one RelaxSweep serves: eight float64
// lanes, which is two YMM registers and one cache line per position.
const RelaxLanes = 8

// RelaxSweep runs one Gauss–Seidel relaxation sweep of eight independent
// shortest-path problems over a pull CSR, and reports whether it lowered any
// label.
//
// There are n = len(off)−1 positions. d[8p+k] is lane k's label at position
// p, so d holds at least 8n entries. Position p's in-arcs are the slots
// e ∈ [off[p], off[p+1]): arc e comes from position adj[e] with weight
// wt[e]. The sweep visits the positions in order 0…n−1, or n−1…0 when back
// is set. At each position, every lane takes the minimum of its label and
// x = d[8·adj[e]+k] + wt[e] over the in-arcs in arc order, replacing the
// label only when x is strictly smaller, and the labels are written back
// before the next position, so later positions see them. Labels of the
// position itself are read as they stood before it was visited.
//
// Lanes lie across sources, so each lane's result is the scalar sweep's,
// whatever the backend: the AVX2 form adds with separate VADDPD (no FMA) and
// keeps the running label on an equal or NaN candidate, exactly as the
// scalar strict-less update does. An empty slot range (off[p] ≥ off[p+1])
// is a position without in-arcs. RelaxSweep panics if d is shorter than 8n
// or an arc slot or arc tail lies outside adj, wt or the positions.
func RelaxSweep(d []float64, off, adj []int32, wt []float64, back bool) (changed bool) {
	n := len(off) - 1
	if n <= 0 {
		return false
	}
	if len(d) < RelaxLanes*n {
		panic("kernel: RelaxSweep label block shorter than RelaxLanes per position")
	}
	d = d[:RelaxLanes*n]
	if useAVX2 {
		m := min(len(adj), len(wt))
		var adjp *int32
		var wtp *float64
		if m > 0 {
			adjp, wtp = &adj[0], &wt[0]
		}
		switch relaxSweepAVX2(&d[0], &off[0], adjp, wtp, n, m, back) {
		case 0:
			return false
		case 1:
			return true
		}
		panic("kernel: RelaxSweep arc outside the positions or the arc arrays")
	}
	return relaxSweepGo(d, off, adj, wt, back)
}

// relaxSweepGo is RelaxSweep's scalar core, the oracle the vector backend
// is pinned to bit for bit.
func relaxSweepGo(d []float64, off, adj []int32, wt []float64, back bool) (changed bool) {
	n := len(off) - 1
	for i := 0; i < n; i++ {
		p := i
		if back {
			p = n - 1 - i
		}
		lab := (*[RelaxLanes]float64)(d[RelaxLanes*p:])
		l := *lab
		lowered := false
		for e := off[p]; e < off[p+1]; e++ {
			src := (*[RelaxLanes]float64)(d[RelaxLanes*int(adj[e]):])
			w := wt[e]
			for k := range l {
				if x := src[k] + w; x < l[k] {
					l[k] = x
					lowered = true
				}
			}
		}
		if lowered {
			*lab = l
			changed = true
		}
	}
	return changed
}
