package kernel

import (
	"container/heap"
	"math"
	"math/rand"
	"testing"
)

// --- SYRK -------------------------------------------------------------------

// dotPanels is the ascending-panel fold of per-panel ascending-index dot
// products — the per-entry reference semantics of SyrkUpperBand. For
// len(a) ≤ PanelLen it is the plain ascending-index dot product.
func dotPanels(a, b []float64) float64 {
	s := 0.0
	for p := 0; p < len(a); p += PanelLen {
		hi := min(p+PanelLen, len(a))
		partial := 0.0
		for t := p; t < hi; t++ {
			partial += a[t] * b[t]
		}
		if p == 0 {
			s = partial
		} else {
			s += partial
		}
	}
	return s
}

// TestSyrkMatchesDot pins every upper-triangle entry of the blocked kernel
// to the panel-folded scalar dot product — bit-exact, not within tolerance:
// within a T-panel the kernel accumulates in ascending t order regardless of
// tiling, and panels fold in ascending order (dotPanels; for l ≤ syrkKC this
// is the plain sequential dot).
func TestSyrkMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 33} {
		for _, l := range []int{0, 1, 2, 3, 5, 8, syrkKC - 1, syrkKC, syrkKC + 1, 2*syrkKC + 3} {
			z := make([]float64, n*l)
			for i := range z {
				z[i] = rng.NormFloat64()
			}
			c := make([]float64, n*n)
			for i := range c {
				c[i] = math.NaN() // catch touched-outside-band writes
			}
			SyrkUpperBand(z, n, l, c, 0, n)
			for i := 0; i < n; i++ {
				for j := i; j < n; j++ {
					want := dotPanels(z[i*l:(i+1)*l], z[j*l:(j+1)*l])
					got := c[i*n+j]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d l=%d: c[%d,%d]=%v, scalar dot %v", n, l, i, j, got, want)
					}
				}
			}
			// Lower triangle must be untouched.
			for i := 0; i < n; i++ {
				for j := 0; j < i; j++ {
					if !math.IsNaN(c[i*n+j]) {
						t.Fatalf("n=%d l=%d: lower entry (%d,%d) written", n, l, i, j)
					}
				}
			}
		}
	}
}

// TestSyrkBandPartitionInvariant verifies the band split does not change a
// single output bit — the property that makes parallel SYRK deterministic
// regardless of the worker count.
func TestSyrkBandPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, l = 37, 129
	z := make([]float64, n*l)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	whole := make([]float64, n*n)
	SyrkUpperBand(z, n, l, whole, 0, n)
	for _, cuts := range [][]int{{0, n}, {0, 1, n}, {0, 5, 6, 20, n}, {0, 2, 4, 6, 8, 10, n}, {0, 36, n}} {
		split := make([]float64, n*n)
		for k := 0; k+1 < len(cuts); k++ {
			SyrkUpperBand(z, n, l, split, cuts[k], cuts[k+1])
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				if math.Float64bits(split[i*n+j]) != math.Float64bits(whole[i*n+j]) {
					t.Fatalf("cuts %v: entry (%d,%d) differs: %v vs %v", cuts, i, j, split[i*n+j], whole[i*n+j])
				}
			}
		}
	}
}

// TestSyrkDegenerateRows checks all-zero (zero-variance) and constant rows
// produce exact zeros against every other row.
func TestSyrkDegenerateRows(t *testing.T) {
	const n, l = 6, 19
	rng := rand.New(rand.NewSource(3))
	z := make([]float64, n*l)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	for t2 := 0; t2 < l; t2++ {
		z[2*l+t2] = 0 // row 2: all zeros, as the Pearson normalizer leaves it
	}
	c := make([]float64, n*n)
	SyrkUpperBand(z, n, l, c, 0, n)
	for j := 2; j < n; j++ {
		if c[2*n+j] != 0 {
			t.Fatalf("zero row: c[2,%d]=%v, want exact 0", j, c[2*n+j])
		}
	}
	for i := 0; i < 2; i++ {
		if c[i*n+2] != 0 {
			t.Fatalf("zero row: c[%d,2]=%v, want exact 0", i, c[i*n+2])
		}
	}
}

// --- Heap4 ------------------------------------------------------------------

// oracleHeap is a container/heap-based reference with the same decrease-key
// interface.
type oracleHeap struct {
	verts []int32
	dist  []float64
	pos   []int32
}

func (o *oracleHeap) Len() int           { return len(o.verts) }
func (o *oracleHeap) Less(i, j int) bool { return o.dist[o.verts[i]] < o.dist[o.verts[j]] }
func (o *oracleHeap) Push(x any)         { o.verts = append(o.verts, x.(int32)) }
func (o *oracleHeap) Pop() any {
	v := o.verts[len(o.verts)-1]
	o.verts = o.verts[:len(o.verts)-1]
	return v
}
func (o *oracleHeap) Swap(i, j int) {
	o.verts[i], o.verts[j] = o.verts[j], o.verts[i]
	o.pos[o.verts[i]] = int32(i)
	o.pos[o.verts[j]] = int32(j)
}

func (o *oracleHeap) decrease(v int32, d float64) {
	if d >= o.dist[v] {
		return
	}
	o.dist[v] = d
	if o.pos[v] < 0 {
		o.pos[v] = int32(len(o.verts))
		heap.Push(o, v)
	}
	heap.Fix(o, int(o.pos[v]))
}

func (o *oracleHeap) popMin() int32 {
	v := o.verts[0]
	// Standard container/heap pop with position maintenance.
	o.Swap(0, len(o.verts)-1)
	o.verts = o.verts[:len(o.verts)-1]
	o.pos[v] = -1
	if len(o.verts) > 0 {
		heap.Fix(o, 0)
	}
	return v
}

// TestHeap4VsOracle drives the 4-ary heap and a container/heap oracle with
// the same random decrease-key/pop sequence. Keys are continuous random
// floats (no ties), so the two heaps must agree exactly: same lengths, same
// popped vertices, same distances.
func TestHeap4VsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n = 64
	for round := 0; round < 50; round++ {
		var h Heap4
		h.Init(make([]int32, n), make([]float64, n), make([]int32, n))
		o := &oracleHeap{dist: make([]float64, n), pos: make([]int32, n)}
		for i := range o.dist {
			o.dist[i] = math.Inf(1)
			o.pos[i] = -1
		}
		for step := 0; step < 400; step++ {
			if h.Len() != o.Len() {
				t.Fatalf("round %d step %d: len %d vs oracle %d", round, step, h.Len(), o.Len())
			}
			if h.Len() > 0 && rng.Intn(3) == 0 {
				hv := h.PopMin()
				ov := o.popMin()
				if hv != ov || h.DistOf(hv) != o.dist[ov] {
					t.Fatalf("round %d step %d: popped (%d,%v) vs oracle (%d,%v)", round, step, hv, h.DistOf(hv), ov, o.dist[ov])
				}
				continue
			}
			v := int32(rng.Intn(n))
			// Uniform keys, occasionally above the current key to exercise
			// the no-op path.
			d := rng.Float64() * 20
			h.DecreaseKey(v, d)
			o.decrease(v, d)
		}
		for h.Len() > 0 {
			hv := h.PopMin()
			ov := o.popMin()
			if hv != ov || h.DistOf(hv) != o.dist[ov] {
				t.Fatalf("round %d drain: (%d,%v) vs oracle (%d,%v)", round, hv, h.DistOf(hv), ov, o.dist[ov])
			}
		}
		for v := 0; v < n; v++ {
			if h.DistOf(int32(v)) != o.dist[v] {
				t.Fatalf("round %d: final dist[%d]=%v vs oracle %v", round, v, h.DistOf(int32(v)), o.dist[v])
			}
		}
	}
}

// TestHeap4Ties exercises heavily tied keys against a plain map-based
// reference: every PopMin must return a vertex attaining the true minimum
// over the vertices currently queued.
func TestHeap4Ties(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n = 48
	for round := 0; round < 30; round++ {
		var h Heap4
		h.Init(make([]int32, n), make([]float64, n), make([]int32, n))
		ref := make(map[int32]float64)
		for step := 0; step < 300; step++ {
			if h.Len() != len(ref) {
				t.Fatalf("round %d step %d: len %d vs ref %d", round, step, h.Len(), len(ref))
			}
			if h.Len() > 0 && rng.Intn(3) == 0 {
				v := h.PopMin()
				want := math.Inf(1)
				for _, d := range ref {
					if d < want {
						want = d
					}
				}
				got, ok := ref[v]
				if !ok {
					t.Fatalf("round %d step %d: popped %d not queued", round, step, v)
				}
				if got != want || h.DistOf(v) != want {
					t.Fatalf("round %d step %d: popped dist %v, true min %v", round, step, got, want)
				}
				delete(ref, v)
				continue
			}
			v := int32(rng.Intn(n))
			d := float64(rng.Intn(6)) // quantized: ties everywhere
			if d < h.DistOf(v) {
				// Only queued-or-new vertices with a real decrease appear in
				// the reference; a popped vertex can re-enter only via a
				// strictly smaller key, mirroring DecreaseKey semantics.
				ref[v] = d
			}
			h.DecreaseKey(v, d)
		}
	}
}

// --- Scan kernels -----------------------------------------------------------

func naiveMinIdx(row []float64) (float64, int) {
	m, i := math.Inf(1), -1
	for t, v := range row {
		if v < m {
			m, i = v, t
		}
	}
	return m, i
}

func TestMinIdxVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, l := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 100} {
		for round := 0; round < 20; round++ {
			row := make([]float64, l)
			for i := range row {
				// Small integer values force ties; sprinkle +Inf like the
				// HAC dead-slot poisoning does.
				if rng.Intn(5) == 0 {
					row[i] = math.Inf(1)
				} else {
					row[i] = float64(rng.Intn(6))
				}
			}
			wm, wi := naiveMinIdx(row)
			gm, gi := MinIdx(row)
			if gm != wm || gi != wi {
				t.Fatalf("l=%d row=%v: got (%v,%d) want (%v,%d)", l, row, gm, gi, wm, wi)
			}
		}
	}
}

func TestMaxGain3VsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const n = 40
	d0 := make([]float64, n)
	d1 := make([]float64, n)
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d0[i] = float64(rng.Intn(4))
		d1[i] = float64(rng.Intn(4))
		d2[i] = float64(rng.Intn(4))
	}
	for _, k := range []int{0, 1, 2, 3, 4, 5, 8, 17, n} {
		// ids: an ascending random subset of size k.
		perm := rng.Perm(n)[:k]
		ids := make([]int32, 0, k)
		for v := 0; v < n; v++ {
			for _, p := range perm {
				if p == v {
					ids = append(ids, int32(v))
					break
				}
			}
		}
		wantG, wantB := math.Inf(-1), int32(-1)
		for _, u := range ids {
			if g := d0[u] + d1[u] + d2[u]; g > wantG {
				wantG, wantB = g, u
			}
		}
		g, b := MaxGain3(d0, d1, d2, ids)
		if g != wantG || b != wantB {
			t.Fatalf("k=%d ids=%v: got (%v,%d) want (%v,%d)", k, ids, g, b, wantG, wantB)
		}
	}
}

func TestMaxGatherVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 30
	row := make([]float64, n)
	for i := range row {
		row[i] = rng.NormFloat64()
	}
	for _, k := range []int{0, 1, 2, 3, 4, 5, 13, n} {
		ids := make([]int32, k)
		for i := range ids {
			ids[i] = int32(rng.Intn(n))
		}
		want := math.Inf(-1)
		for _, u := range ids {
			if row[u] > want {
				want = row[u]
			}
		}
		if got := MaxGather(row, ids); got != want {
			t.Fatalf("k=%d: got %v want %v", k, got, want)
		}
	}
}

func TestDissimRowVsNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, l := range []int{0, 1, 3, 4, 5, 63, 64, 65} {
		src := make([]float64, l)
		for i := range src {
			src[i] = 2*rng.Float64() - 1
		}
		if l > 2 {
			src[1] = 1 + 1e-16 // clamp guard: 2(1−p) slightly negative
		}
		dst := make([]float64, l)
		DissimRow(dst, src)
		for j := range src {
			v := 2 * (1 - src[j])
			if v < 0 {
				v = 0
			}
			want := math.Sqrt(v)
			if math.Float64bits(dst[j]) != math.Float64bits(want) {
				t.Fatalf("l=%d j=%d: got %v want %v", l, j, dst[j], want)
			}
		}
	}
}

// --- FinishPearsonMoments ---------------------------------------------------

// momentsFixture builds random raw moments (upper-triangle cross products
// plus rolling sums) for n series over l samples, with a sprinkling of
// constant series to exercise the zero-variance pinning.
func momentsFixture(rng *rand.Rand, n, l int) (g, s []float64) {
	x := make([]float64, n*l)
	for i := 0; i < n; i++ {
		if rng.Intn(7) == 0 {
			c := rng.NormFloat64()
			for t := 0; t < l; t++ {
				x[i*l+t] = c
			}
			continue
		}
		for t := 0; t < l; t++ {
			x[i*l+t] = rng.NormFloat64() + 3 // offset stresses the centering
		}
	}
	g = make([]float64, n*n)
	s = make([]float64, n)
	for i := 0; i < n; i++ {
		for t := 0; t < l; t++ {
			s[i] += x[i*l+t]
		}
		for j := i; j < n; j++ {
			for t := 0; t < l; t++ {
				g[i*n+j] += x[i*l+t] * x[j*l+t]
			}
		}
	}
	return g, s
}

func TestFinishPearsonMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const l = 24
	for _, n := range []int{1, 2, 3, 5, finishB - 1, finishB, finishB + 1, 2*finishB + 2} {
		raw, s := momentsFixture(rng, n, l)
		mu := make([]float64, n)
		inv := make([]float64, n)
		zero := make([]int32, n)
		if bad := PrepPearsonMoments(raw, n, s, l, mu, inv, zero); bad != -1 {
			t.Fatalf("n=%d: finite moments flagged bad at %d", n, bad)
		}

		sim := append([]float64(nil), raw...)
		dis := make([]float64, n*n)
		FinishPearsonMoments(sim, dis, n, s, mu, inv, zero, 0, FinishTiles(n))

		// Reference: the unfused moments → clamp → mirror → dissimilarity
		// pipeline with the same canonical operation order.
		want := append([]float64(nil), raw...)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				p := (want[i*n+j] - s[i]*mu[j]) * inv[i] * inv[j]
				switch {
				case i == j:
					p = 1
				case zero[i] != 0 || zero[j] != 0:
					p = 0
				case p > 1:
					p = 1
				case p < -1:
					p = -1
				case p != p:
					p = 0
				}
				want[i*n+j] = p
				want[j*n+i] = p
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if sim[i*n+j] != want[i*n+j] {
					t.Fatalf("n=%d: sim[%d,%d]=%v want %v", n, i, j, sim[i*n+j], want[i*n+j])
				}
				v := 2 * (1 - want[i*n+j])
				if v < 0 {
					v = 0
				}
				if wd := math.Sqrt(v); dis[i*n+j] != wd {
					t.Fatalf("n=%d: dis[%d,%d]=%v want %v", n, i, j, dis[i*n+j], wd)
				}
			}
		}

		// nil dis: sim-only finish must produce the same sim.
		simOnly := append([]float64(nil), raw...)
		FinishPearsonMoments(simOnly, nil, n, s, mu, inv, zero, 0, FinishTiles(n))
		for i := range simOnly {
			if simOnly[i] != sim[i] {
				t.Fatalf("n=%d: sim-only finish diverges at %d", n, i)
			}
		}

		// Tile-row partition invariance (parallel determinism).
		split := append([]float64(nil), raw...)
		splitDis := make([]float64, n*n)
		for b := 0; b < FinishTiles(n); b++ {
			FinishPearsonMoments(split, splitDis, n, s, mu, inv, zero, b, b+1)
		}
		for i := range split {
			if split[i] != sim[i] || splitDis[i] != dis[i] {
				t.Fatalf("n=%d: tile partition changes output at %d", n, i)
			}
		}
	}
}

// TestPrepPearsonMoments pins the per-series coefficient derivation: exact
// means and inverse norms for clean integer data, zero-variance flagging for
// constant series (whose centered moment cancels to ~0 rather than exactly
// 0), and non-finite detection.
func TestPrepPearsonMoments(t *testing.T) {
	// Series: {1,2,3,4} (variance 5), {5,5,5,5} (constant), {0,0,0,0}.
	const n, l = 3, 4
	x := [n][l]float64{{1, 2, 3, 4}, {5, 5, 5, 5}, {0, 0, 0, 0}}
	g := make([]float64, n*n)
	s := make([]float64, n)
	for i := 0; i < n; i++ {
		for tt := 0; tt < l; tt++ {
			s[i] += x[i][tt]
			g[i*n+i] += x[i][tt] * x[i][tt]
		}
	}
	mu := make([]float64, n)
	inv := make([]float64, n)
	zero := make([]int32, n)
	if bad := PrepPearsonMoments(g, n, s, l, mu, inv, zero); bad != -1 {
		t.Fatalf("bad=%d for finite input", bad)
	}
	if mu[0] != 2.5 || mu[1] != 5 || mu[2] != 0 {
		t.Fatalf("mu = %v", mu)
	}
	if zero[0] != 0 || zero[1] != 1 || zero[2] != 1 {
		t.Fatalf("zero = %v", zero)
	}
	if want := 1 / math.Sqrt(5); inv[0] != want {
		t.Fatalf("inv[0] = %v want %v", inv[0], want)
	}
	if inv[1] != 0 || inv[2] != 0 {
		t.Fatalf("zero-variance inv not pinned: %v", inv)
	}

	// A constant series whose sums do not cancel exactly must still be
	// flagged by the relative threshold.
	gc := []float64{0.030000000000000006}
	sc := []float64{0.30000000000000004} // Σ of three 0.1 samples
	if PrepPearsonMoments(gc, 1, sc, 3, mu[:1], inv[:1], zero[:1]); zero[0] != 1 {
		t.Fatalf("near-cancelled constant series not flagged (var=%v)", gc[0]-sc[0]*(sc[0]/3))
	}

	// Non-finite moments are reported and pinned.
	gn := []float64{math.Inf(1), 0, 0, 4}
	sn := []float64{1, 2}
	if bad := PrepPearsonMoments(gn, 2, sn, 2, mu[:2], inv[:2], zero[:2]); bad != 0 {
		t.Fatalf("bad = %d want 0", bad)
	}
	if zero[0] != 1 || inv[0] != 0 {
		t.Fatal("non-finite series not pinned as zero-variance")
	}
}
