package kernel

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Oracle bit-equality tests: every dispatched kernel (AVX2 on capable amd64
// hosts, scalar elsewhere and under -tags purego) must produce bit-identical
// float64 results to the always-compiled scalar cores. Shapes deliberately
// include awkward lengths (n%8 ≠ 0, sub-tile tails, single rows) and the
// non-finite fuzz-crasher patterns from the PR 4 harness (all ±Inf, mixed
// Inf/NaN-producing products), because those are exactly where lane masks,
// clamp instructions, and NaN propagation can silently diverge from the
// scalar semantics. On hosts without AVX2 the tests compare scalar to scalar
// and pass trivially — the point is that the same suite gates every backend.

// fuzzShapes fills z with the adversarial value mix: normals plus ±Inf,
// ±MaxFloat64, zeros, and denormals.
func fuzzFill(rng *rand.Rand, z []float64) {
	specials := []float64{
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1, -1,
	}
	for i := range z {
		switch rng.Intn(4) {
		case 0:
			z[i] = specials[rng.Intn(len(specials))]
		default:
			z[i] = rng.NormFloat64()
		}
	}
}

func bitsEqual(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestOracleSyrkUpperRange(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, tc := range []struct{ n, l int }{
		{1, 1}, {3, 7}, {8, 16}, {9, 33}, {15, 64}, {16, 100}, {17, 129},
		{31, 40}, {33, 257}, {40, syrkKC + 9}, {23, 2*syrkKC + 3},
	} {
		n, l := tc.n, tc.l
		for fuzz := 0; fuzz < 2; fuzz++ {
			z := make([]float64, n*l)
			if fuzz == 1 {
				fuzzFill(rng, z)
			} else {
				for i := range z {
					z[i] = rng.NormFloat64()
				}
			}
			got := make([]float64, n*n)
			want := make([]float64, n*n)
			SyrkUpperRange(z, n, l, got, 0, n, 0, l, true)
			syrkUpperRangeGo(z, n, l, want, 0, n, 0, l, true)
			if i := bitsEqual(got, want); i >= 0 {
				t.Fatalf("n=%d l=%d fuzz=%d: dispatched SYRK diverges from scalar at %d: %v vs %v",
					n, l, fuzz, i, got[i], want[i])
			}
			// Awkward bands: single rows, odd splits.
			banded := make([]float64, n*n)
			for _, cut := range [][2]int{{0, 1}, {1, min(3, n)}, {min(3, n), n}} {
				if cut[0] < cut[1] {
					SyrkUpperRange(z, n, l, banded, cut[0], cut[1], 0, l, true)
				}
			}
			if i := bitsEqual(banded, want); i >= 0 {
				t.Fatalf("n=%d l=%d fuzz=%d: banded SYRK diverges at %d", n, l, fuzz, i)
			}
		}
	}
}

// TestOracleSyrkPanelSplit pins the fold invariance the parallel SYRK is
// built on: computing panel-aligned sub-ranges separately — the first with
// first=true, the rest folding in ascending order — matches the whole-range
// call bit-for-bit, for both backends against the scalar whole-range oracle.
func TestOracleSyrkPanelSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n = 13
	for _, l := range []int{syrkKC, syrkKC + 1, 2 * syrkKC, 3*syrkKC + 37} {
		z := make([]float64, n*l)
		fuzzFill(rng, z)
		want := make([]float64, n*n)
		syrkUpperRangeGo(z, n, l, want, 0, n, 0, l, true)

		split := make([]float64, n*n)
		for k0 := 0; k0 < l; k0 += syrkKC {
			k1 := min(k0+syrkKC, l)
			SyrkUpperRange(z, n, l, split, 0, n, k0, k1, k0 == 0)
		}
		if i := bitsEqual(split, want); i >= 0 {
			t.Fatalf("l=%d: panel-split SYRK diverges at %d: %v vs %v", l, i, split[i], want[i])
		}

		// Private-band accumulation + AddUpper fold, as the parallel driver
		// does: panel 0 in place, later panels into scratch, folded ascending.
		priv := make([]float64, n*n)
		SyrkUpperRange(z, n, l, priv, 0, n, 0, min(syrkKC, l), true)
		scratch := make([]float64, n*n)
		for k0 := syrkKC; k0 < l; k0 += syrkKC {
			k1 := min(k0+syrkKC, l)
			SyrkUpperRange(z, n, l, scratch, 0, n, k0, k1, true)
			AddUpper(priv, scratch, n, 0, n)
		}
		if i := bitsEqual(priv, want); i >= 0 {
			t.Fatalf("l=%d: private-band fold diverges at %d: %v vs %v", l, i, priv[i], want[i])
		}
	}
}

func TestOracleRank1(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 33, 100} {
		for fuzz := 0; fuzz < 2; fuzz++ {
			base := make([]float64, n*n)
			xNew := make([]float64, n)
			xOld := make([]float64, n)
			if fuzz == 1 {
				fuzzFill(rng, base)
				fuzzFill(rng, xNew)
				fuzzFill(rng, xOld)
			} else {
				for i := range base {
					base[i] = rng.NormFloat64()
				}
				for i := range xNew {
					xNew[i] = rng.NormFloat64()
					xOld[i] = rng.NormFloat64()
				}
			}

			got := append([]float64(nil), base...)
			want := append([]float64(nil), base...)
			Rank1UpdateUpper(got, n, xNew, 0, n)
			for i := 0; i < n; i++ {
				rank1UpdateRowGo(want[i*n:(i+1)*n:(i+1)*n], xNew, xNew[i], i, n)
			}
			if i := bitsEqual(got, want); i >= 0 {
				t.Fatalf("n=%d fuzz=%d: update diverges at %d: %v vs %v", n, fuzz, i, got[i], want[i])
			}

			got = append(got[:0], base...)
			want = append(want[:0], base...)
			Rank1RollUpper(got, n, xNew, xOld, 0, n)
			for i := 0; i < n; i++ {
				rank1RollRowGo(want[i*n:(i+1)*n:(i+1)*n], xNew, xOld, xNew[i], xOld[i], i, n)
			}
			if i := bitsEqual(got, want); i >= 0 {
				t.Fatalf("n=%d fuzz=%d: roll diverges at %d: %v vs %v", n, fuzz, i, got[i], want[i])
			}
		}
	}
}

func TestOracleFinish(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for _, n := range []int{1, 2, 5, 7, 8, 9, 31, finishB, finishB + 5, 2*finishB + 2} {
		for fuzz := 0; fuzz < 2; fuzz++ {
			raw := make([]float64, n*n)
			s := make([]float64, n)
			if fuzz == 1 {
				// Adversarial moments: overflowed cross products yield ±Inf
				// and NaN after centering — the pinning ladder must agree.
				fuzzFill(rng, raw)
				for i := 0; i < n; i++ {
					s[i] = rng.NormFloat64() * 10
					raw[i*n+i] = math.Abs(rng.NormFloat64())*100 + 1 // usable diagonal
				}
			} else {
				var g []float64
				g, s = momentsFixture(rng, n, 24)
				copy(raw, g)
			}
			mu := make([]float64, n)
			inv := make([]float64, n)
			zero := make([]int32, n)
			PrepPearsonMoments(raw, n, s, 24, mu, inv, zero)

			got := append([]float64(nil), raw...)
			FinishPearsonMoments(got, n, s, mu, inv, zero, 0, FinishTiles(n))

			want := append([]float64(nil), raw...)
			finishTilesGo(want, n, s, mu, inv, zero)

			if i := bitsEqual(got, want); i >= 0 {
				t.Fatalf("n=%d fuzz=%d: finish diverges at %d: %v vs %v", n, fuzz, i, got[i], want[i])
			}
		}
	}
}

// finishTilesGo runs the full finish pass forcing the scalar row body.
func finishTilesGo(sim []float64, n int, s, mu, inv []float64, zero []int32) {
	for bi := 0; bi < FinishTiles(n); bi++ {
		i0 := bi * finishB
		i1 := min(i0+finishB, n)
		for j0 := i0; j0 < n; j0 += finishB {
			j1 := min(j0+finishB, n)
			for i := i0; i < i1; i++ {
				js := j0
				if js <= i {
					sim[i*n+i] = 1
					js = i + 1
				}
				if zero[i] != 0 {
					for j := js; j < j1; j++ {
						sim[i*n+j] = 0
						sim[j*n+i] = 0
					}
					continue
				}
				finishRowGo(sim, n, s[i], inv[i], mu, inv, zero, i, js, j1)
			}
		}
	}
}

// corrDriftRowsGo runs the whole drift scan on the scalar cores.
func corrDriftRowsGo(g []float64, n int, s, mu, inv []float64, zero []int32, ref []float64, lo, hi int) float64 {
	drift := 0.0
	for i := lo; i < hi; i++ {
		refRow := ref[i*n : (i+1)*n]
		if zero[i] != 0 {
			drift = driftZeroRowGo(refRow, i+1, drift)
			continue
		}
		drift = driftRowGo(g[i*n:(i+1)*n], refRow, mu, inv, zero, s[i], inv[i], i+1, drift)
	}
	return drift
}

// driftFixture returns raw moments, sums and a reference for an n-series
// drift scan:
//
//   - fuzz 0: well-scaled moments against a perturbed finish of themselves;
//   - fuzz 1: fuzzFill values in the band and the reference (±Inf,
//     ±MaxFloat64 and subnormals, so centring overflows and the reference
//     holds infinities);
//   - fuzz 2: well-scaled moments against their own finish, except that each
//     row carries one bump followed four columns later (the same vector
//     lane) by a NaN, so a NaN that reset a lane's running maximum would
//     lose the bump.
//
// Every case pins a few rows to zero variance and puts NaN into a few
// reference entries.
func driftFixture(rng *rand.Rand, n, fuzz int) (raw, s, ref []float64) {
	const l = 24
	if fuzz == 1 {
		raw, s, ref = make([]float64, n*n), make([]float64, n), make([]float64, n*n)
		fuzzFill(rng, raw)
		fuzzFill(rng, ref)
		for i := 0; i < n; i++ {
			s[i] = rng.NormFloat64() * 10
			raw[i*n+i] = math.Abs(rng.NormFloat64())*100 + 1 // usable diagonal
		}
	} else {
		raw, s = momentsFixture(rng, n, l)
		mu, inv, zero := make([]float64, n), make([]float64, n), make([]int32, n)
		PrepPearsonMoments(raw, n, s, l, mu, inv, zero)
		ref = append([]float64(nil), raw...)
		FinishPearsonMoments(ref, n, s, mu, inv, zero, 0, FinishTiles(n))
		for i := 0; i < n; i++ {
			if fuzz == 0 {
				for j := i + 1; j < n; j++ {
					ref[i*n+j] += rng.NormFloat64() * 0.01
				}
			} else if i+5 < n {
				j := i + 1 + rng.Intn(n-i-5)
				ref[i*n+j] += rng.Float64()
				ref[i*n+j+4] = math.NaN()
			}
		}
	}
	for k := 0; k < 1+n/8; k++ {
		i := rng.Intn(n)
		raw[i*n+i], s[i] = 0, 0 // zero variance
	}
	for k := 0; k < 1+n/4; k++ {
		ref[rng.Intn(n*n)] = math.NaN() // a NaN difference never wins
	}
	return raw, s, ref
}

// TestOracleCorrDrift pins the dispatched drift scan to the scalar core bit
// for bit, from every starting row, so every vector segment length and
// scalar tail length occurs.
func TestOracleCorrDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	for _, n := range []int{1, 2, 5, 7, 8, 9, 65, 257} {
		for fuzz := 0; fuzz < 3; fuzz++ {
			raw, s, ref := driftFixture(rng, n, fuzz)
			mu, inv, zero := make([]float64, n), make([]float64, n), make([]int32, n)
			PrepPearsonMoments(raw, n, s, 24, mu, inv, zero)
			for lo := 0; lo < n; lo++ {
				got := CorrDriftRows(raw, n, s, mu, inv, zero, ref, lo, n)
				want := corrDriftRowsGo(raw, n, s, mu, inv, zero, ref, lo, n)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d fuzz=%d lo=%d: drift %v, scalar core %v", n, fuzz, lo, got, want)
				}
			}
		}
	}
}

// FuzzCorrDriftRows checks the dispatched drift scan against the scalar
// core on raw float bits: the band, sums and reference are 8 payload bytes
// each (cycled when short), so NaN, ±Inf, −0, subnormals and centring that
// overflows all occur; n (≤ 64), the first row and the sample count come
// from the other arguments.
func FuzzCorrDriftRows(f *testing.F) {
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 9, 17, 33} {
		for fuzz := 0; fuzz < 3; fuzz++ {
			raw, s, ref := driftFixture(rng, n, fuzz)
			var data []byte
			for _, v := range append(append(raw, s...), ref...) {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
			}
			f.Add(uint8(n-1), uint8(n/3), uint16(23), data)
		}
	}
	f.Fuzz(func(t *testing.T, nRaw, loRaw uint8, count uint16, data []byte) {
		n := 1 + int(nRaw)%64
		lo := int(loRaw) % n
		pos := 0
		var buf [8]byte
		fill := func(dst []float64) {
			for k := range dst {
				for b := range buf {
					if len(data) == 0 {
						buf[b] = byte(pos)
					} else {
						buf[b] = data[pos%len(data)]
					}
					pos++
				}
				dst[k] = math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			}
		}
		raw, s, ref := make([]float64, n*n), make([]float64, n), make([]float64, n*n)
		fill(raw)
		fill(s)
		fill(ref)
		mu, inv, zero := make([]float64, n), make([]float64, n), make([]int32, n)
		PrepPearsonMoments(raw, n, s, 1+int(count), mu, inv, zero)
		got := CorrDriftRows(raw, n, s, mu, inv, zero, ref, lo, n)
		want := corrDriftRowsGo(raw, n, s, mu, inv, zero, ref, lo, n)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d lo=%d: drift %v (%#x), scalar core %v (%#x)",
				n, lo, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	})
}

func TestOracleScans(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, l := range []int{0, 1, 3, 4, 7, 8, 15, 16, 17, 63, 64, 65, 200} {
		for fuzz := 0; fuzz < 3; fuzz++ {
			row := make([]float64, l)
			switch fuzz {
			case 0:
				for i := range row {
					row[i] = rng.NormFloat64()
				}
			case 1:
				fuzzFill(rng, row)
			case 2:
				for i := range row { // heavy ties + Inf poisoning
					if rng.Intn(4) == 0 {
						row[i] = math.Inf(1)
					} else {
						row[i] = float64(rng.Intn(4))
					}
				}
			}
			wm, wi := naiveMinIdx(row)
			gm, gi := MinIdx(row)
			if math.Float64bits(gm) != math.Float64bits(wm) || gi != wi {
				t.Fatalf("l=%d fuzz=%d: MinIdx (%v,%d) vs naive (%v,%d)", l, fuzz, gm, gi, wm, wi)
			}

			dst := make([]float64, l)
			DissimRow(dst, row)
			for j := range row {
				v := 2 * (1 - row[j])
				if v < 0 {
					v = 0
				}
				want := math.Sqrt(v)
				if math.Float64bits(dst[j]) != math.Float64bits(want) {
					t.Fatalf("l=%d fuzz=%d j=%d: DissimRow %v vs naive %v (src=%v)", l, fuzz, j, dst[j], want, row[j])
				}
			}
		}
	}
}

// relaxFixture returns a label block and a pull CSR of n positions for
// RelaxSweep, in the kernel's domain (no NaN, no negative value):
//
//   - fuzz 0: a few finite labels among +Inf, positive weights;
//   - fuzz 1: special labels and weights: 0, subnormals, MaxFloat64 (so two
//     of them overflow to +Inf) and +Inf;
//   - fuzz 2: every label +Inf except one 0 per lane, the start of eight
//     shortest-path problems.
//
// Degrees run 0–6, so empty in-arc lists occur; an arc may come from its
// own position.
func relaxFixture(rng *rand.Rand, n, fuzz int) (d []float64, off, adj []int32, wt []float64) {
	inf := math.Inf(1)
	specials := []float64{0, math.SmallestNonzeroFloat64, math.MaxFloat64, inf, 1, 0.5}
	draw := func() float64 {
		if fuzz == 1 && rng.Intn(2) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		return rng.Float64() * 4
	}
	off = make([]int32, n+1)
	for p := 0; p < n; p++ {
		deg := rng.Intn(7)
		for k := 0; k < deg; k++ {
			adj = append(adj, int32(rng.Intn(n)))
			wt = append(wt, draw())
		}
		off[p+1] = int32(len(adj))
	}
	d = make([]float64, RelaxLanes*n)
	for i := range d {
		d[i] = inf
		if fuzz != 2 && rng.Intn(3) == 0 {
			d[i] = draw()
		}
	}
	if fuzz == 2 {
		for k := 0; k < RelaxLanes; k++ {
			d[RelaxLanes*rng.Intn(n)+k] = 0
		}
	}
	return d, off, adj, wt
}

// checkRelaxSweeps runs sweeps, alternating direction from the first, on
// the dispatched kernel and on the scalar core side by side, comparing the
// labels bit for bit and the changed flags after every sweep, until a sweep
// lowers nothing. Labels only fall to float sums of walks of at most n−1
// arcs, so a fixed point must come within n sweeps plus the confirming one.
func checkRelaxSweeps(t *testing.T, name string, d []float64, off, adj []int32, wt []float64, back bool) {
	t.Helper()
	n := len(off) - 1
	got := append([]float64(nil), d...)
	want := append([]float64(nil), d...)
	for sweep := 0; ; sweep++ {
		if sweep > n {
			t.Fatalf("%s: no fixed point after %d sweeps", name, sweep)
		}
		gc := RelaxSweep(got, off, adj, wt, back)
		wc := relaxSweepGo(want, off, adj, wt, back)
		if i := bitsEqual(got, want); i >= 0 || gc != wc {
			t.Fatalf("%s: sweep %d (back=%v): changed %v vs scalar %v; first label diff at %d",
				name, sweep, back, gc, wc, i)
		}
		if !gc {
			return
		}
		back = !back
	}
}

// TestOracleRelaxSweep pins the dispatched relaxation sweep to the scalar
// core, labels and changed flag, sweep by sweep in both directions, on
// position counts around the lane and register widths.
func TestOracleRelaxSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	for _, n := range []int{1, 7, 8, 9, 63} {
		for fuzz := 0; fuzz < 3; fuzz++ {
			for _, back := range []bool{false, true} {
				d, off, adj, wt := relaxFixture(rng, n, fuzz)
				checkRelaxSweeps(t, fmt.Sprintf("n=%d fuzz=%d", n, fuzz), d, off, adj, wt, back)
			}
		}
	}
	// No arcs at all, and a block longer than 8n: nothing may change, and
	// the labels past 8n stay untouched.
	d := []float64{3, math.Inf(1), 0, 1, 2, 5, 8, 13, 21}
	if RelaxSweep(d, []int32{0, 0}, nil, nil, false) || d[8] != 21 {
		t.Fatalf("sweep without arcs changed labels: %v", d)
	}
}

// FuzzRelaxSweep checks the dispatched sweep against the scalar core on raw
// float bits mapped into the kernel's domain (|x|, NaN sent to +Inf), so
// zeros, subnormals, huge values whose sums overflow, and +Inf all occur.
// The position count (≤ 64), each position's in-arcs and every label and
// weight come from the payload, cycled when short.
func FuzzRelaxSweep(f *testing.F) {
	rng := rand.New(rand.NewSource(79))
	for _, n := range []int{1, 9, 17, 33} {
		for fuzz := 0; fuzz < 3; fuzz++ {
			d, off, adj, wt := relaxFixture(rng, n, fuzz)
			var data []byte
			for p := 0; p < n; p++ {
				lo, hi := off[p], off[p+1]
				data = append(data, byte(hi-lo))
				for e := lo; e < hi; e++ {
					data = append(data, byte(adj[e]))
					data = binary.LittleEndian.AppendUint64(data, math.Float64bits(wt[e]))
				}
			}
			for _, v := range d {
				data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
			}
			f.Add(uint8(n-1), fuzz == 1, data)
		}
	}
	f.Fuzz(func(t *testing.T, nRaw uint8, back bool, data []byte) {
		n := 1 + int(nRaw)%64
		pos := 0
		next := func() byte {
			b := byte(pos)
			if len(data) > 0 {
				b = data[pos%len(data)]
			}
			pos++
			return b
		}
		float := func() float64 {
			var raw [8]byte
			for i := range raw {
				raw[i] = next()
			}
			x := math.Abs(math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
			if math.IsNaN(x) {
				x = math.Inf(1)
			}
			return x
		}
		off := make([]int32, n+1)
		var adj []int32
		var wt []float64
		for p := 0; p < n; p++ {
			deg := int(next()) % 9
			for k := 0; k < deg; k++ {
				adj = append(adj, int32(int(next())%n))
				wt = append(wt, float())
			}
			off[p+1] = int32(len(adj))
		}
		d := make([]float64, RelaxLanes*n)
		for i := range d {
			d[i] = float()
		}
		checkRelaxSweeps(t, fmt.Sprintf("n=%d", n), d, off, adj, wt, back)
	})
}
