package hac

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pfg/internal/dendro"
	"pfg/internal/exec"
)

// runMatrix clusters d (consumed) on the default pool without a workspace.
func runMatrix(n int, d []float64, linkage Linkage) (*dendro.Dendrogram, error) {
	return RunMatrixWS(context.Background(), exec.Default(), nil, n, d, linkage)
}

// runDist clusters n points whose pairwise dissimilarities are given by dist
// (the diagonal is ignored).
func runDist(n int, dist func(i, j int) float64, linkage Linkage) (*dendro.Dendrogram, error) {
	d := make([]float64, max(n, 0)*max(n, 0))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d[i*n+j] = dist(i, j)
			}
		}
	}
	return runMatrix(n, d, linkage)
}

// bruteForce performs naive agglomeration: repeatedly merge the pair of
// clusters with the smallest linkage distance, computing set distances from
// first principles (not Lance-Williams).
func bruteForce(n int, d []float64, linkage Linkage) *dendro.Dendrogram {
	type cluster struct {
		node   int32
		points []int32
	}
	clusters := []cluster{}
	for i := 0; i < n; i++ {
		clusters = append(clusters, cluster{node: int32(i), points: []int32{int32(i)}})
	}
	setDist := func(a, b cluster) float64 {
		switch linkage {
		case Complete:
			best := math.Inf(-1)
			for _, p := range a.points {
				for _, q := range b.points {
					best = math.Max(best, d[p*int32(n)+q])
				}
			}
			return best
		case Single:
			best := math.Inf(1)
			for _, p := range a.points {
				for _, q := range b.points {
					best = math.Min(best, d[p*int32(n)+q])
				}
			}
			return best
		default: // Average
			s := 0.0
			for _, p := range a.points {
				for _, q := range b.points {
					s += d[p*int32(n)+q]
				}
			}
			return s / float64(len(a.points)*len(b.points))
		}
	}
	out := &dendro.Dendrogram{N: n}
	next := int32(n)
	for len(clusters) > 1 {
		bi, bj := 0, 1
		bd := math.Inf(1)
		for i := range clusters {
			for j := i + 1; j < len(clusters); j++ {
				if dd := setDist(clusters[i], clusters[j]); dd < bd {
					bd, bi, bj = dd, i, j
				}
			}
		}
		out.Merges = append(out.Merges, dendro.Merge{A: clusters[bi].node, B: clusters[bj].node, Height: bd})
		merged := cluster{node: next, points: append(append([]int32{}, clusters[bi].points...), clusters[bj].points...)}
		next++
		nc := []cluster{}
		for i := range clusters {
			if i != bi && i != bj {
				nc = append(nc, clusters[i])
			}
		}
		clusters = append(nc, merged)
	}
	return out
}

func randomDist(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64() + 0.001
			d[i*n+j] = v
			d[j*n+i] = v
		}
	}
	return d
}

func sameHeights(a, b *dendro.Dendrogram) bool {
	if len(a.Merges) != len(b.Merges) {
		return false
	}
	for i := range a.Merges {
		if math.Abs(a.Merges[i].Height-b.Merges[i].Height) > 1e-9 {
			return false
		}
	}
	return true
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	m := map[[2]int]bool{}
	for i := range a {
		m[[2]int{a[i], b[i]}] = true
	}
	// Bijection check.
	fa := map[int]int{}
	fb := map[int]int{}
	for k := range m {
		if v, ok := fa[k[0]]; ok && v != k[1] {
			return false
		}
		if v, ok := fb[k[1]]; ok && v != k[0] {
			return false
		}
		fa[k[0]] = k[1]
		fb[k[1]] = k[0]
	}
	return true
}

func TestMatchesBruteForceAllLinkages(t *testing.T) {
	for _, linkage := range []Linkage{Complete, Average, Single} {
		linkage := linkage
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			n := 3 + rng.Intn(25)
			d := randomDist(rng, n)
			got, err := runMatrix(n, append([]float64{}, d...), linkage)
			if err != nil {
				return false
			}
			want := bruteForce(n, d, linkage)
			if !sameHeights(got, want) {
				return false
			}
			// Cut comparisons at several k.
			for _, k := range []int{1, 2, n / 2, n} {
				if k < 1 {
					continue
				}
				ga, err1 := got.Cut(k)
				gb, err2 := want.Cut(k)
				if err1 != nil || err2 != nil || !samePartition(ga, gb) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
			t.Fatalf("%v: %v", linkage, err)
		}
	}
}

// TestSingleLinkageMatchesKruskal checks single linkage against its graph
// form (Gower & Ross 1969), computed by brute force: Kruskal over every
// pair in ascending order. The merge heights must be the accepted pair
// distances in order, and while the accepted pairs leave k components,
// those components must be the k-cluster cut.
func TestSingleLinkageMatchesKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		d := randomDist(rng, n)
		got, err := runMatrix(n, append([]float64{}, d...), Single)
		if err != nil {
			return false
		}
		type pair struct {
			d    float64
			i, j int32
		}
		var pairs []pair
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pairs = append(pairs, pair{d[i*n+j], int32(i), int32(j)})
			}
		}
		slices.SortFunc(pairs, func(a, b pair) int { return cmp.Compare(a.d, b.d) })
		parent := make([]int32, n)
		for i := range parent {
			parent[i] = int32(i)
		}
		components := func() []int {
			labels := make([]int, n)
			for i := range labels {
				labels[i] = int(ufFind(parent, int32(i)))
			}
			return labels
		}
		var heights []float64
		for k := n; ; k-- {
			labels, err := got.Cut(k)
			if err != nil || !samePartition(labels, components()) {
				return false
			}
			if k == 1 {
				break
			}
			// Accept the closest pair that joins two components.
			for ufFind(parent, pairs[0].i) == ufFind(parent, pairs[0].j) {
				pairs = pairs[1:]
			}
			parent[ufFind(parent, pairs[0].i)] = ufFind(parent, pairs[0].j)
			heights = append(heights, pairs[0].d)
		}
		if len(got.Merges) != len(heights) {
			return false
		}
		for i, m := range got.Merges {
			if m.Height != heights[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithDistFunc(t *testing.T) {
	// Points on a line: 0, 1, 10, 11. Complete linkage pairs (0,1), (2,3).
	pos := []float64{0, 1, 10, 11}
	d, err := runDist(4, func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }, Complete)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	labels, err := d.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if !(labels[0] == labels[1] && labels[2] == labels[3] && labels[0] != labels[2]) {
		t.Fatalf("labels %v", labels)
	}
	// First merge heights must be 1 and 1, root height 11.
	if d.Merges[0].Height != 1 || d.Merges[1].Height != 1 {
		t.Fatalf("first merges %v", d.Merges)
	}
	if d.Merges[2].Height != 11 {
		t.Fatalf("complete-linkage root height %v want 11", d.Merges[2].Height)
	}
}

func TestAverageLinkageHeight(t *testing.T) {
	pos := []float64{0, 1, 10, 11}
	d, err := runDist(4, func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }, Average)
	if err != nil {
		t.Fatal(err)
	}
	// Root height = mean of {10,11,9,10} = 10.
	if math.Abs(d.Merges[2].Height-10) > 1e-12 {
		t.Fatalf("average root height %v want 10", d.Merges[2].Height)
	}
}

func TestSingleLinkageChain(t *testing.T) {
	// Single linkage chains through closely spaced points.
	pos := []float64{0, 1, 2, 3, 100}
	d, err := runDist(5, func(i, j int) float64 { return math.Abs(pos[i] - pos[j]) }, Single)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := d.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if !(labels[0] == labels[1] && labels[1] == labels[2] && labels[2] == labels[3] && labels[4] != labels[0]) {
		t.Fatalf("labels %v", labels)
	}
}

func TestEdgeCases(t *testing.T) {
	if _, err := runDist(0, nil, Complete); err == nil {
		t.Fatal("n=0 accepted")
	}
	d, err := runDist(1, nil, Complete)
	if err != nil || len(d.Merges) != 0 {
		t.Fatal("n=1 should give empty dendrogram")
	}
	d2, err := runDist(2, func(i, j int) float64 { return 3 }, Average)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.Merges) != 1 || d2.Merges[0].Height != 3 {
		t.Fatalf("n=2 merges %v", d2.Merges)
	}
	if _, err := runMatrix(3, make([]float64, 4), Complete); err == nil {
		t.Fatal("bad matrix size accepted")
	}
}

func TestMonotoneHeights(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		d := randomDist(rng, n)
		for _, linkage := range []Linkage{Complete, Average, Single} {
			dd, err := runMatrix(n, append([]float64{}, d...), linkage)
			if err != nil {
				return false
			}
			if dd.Validate(1e-9) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestMergesInHeightOrder pins the order DBHT's hierarchy sets its heights
// by: RunMatrixIntoWS returns its merges by non-decreasing height, for
// complete and average linkage on tied, +Inf and asymmetric distances, and
// on the one-merge path of two objects.
func TestMergesInHeightOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	inputs := []struct {
		name string
		draw func() float64
		asym bool // draw d[j][i] apart from d[i][j]
	}{
		{"tied", func() float64 { return float64(1 + rng.Intn(3)) }, false},
		{"inf", func() float64 {
			if rng.Intn(3) == 0 {
				return math.Inf(1)
			}
			return rng.Float64()
		}, false},
		{"all-inf", func() float64 { return math.Inf(1) }, false},
		{"asymmetric", rng.Float64, true},
	}
	for _, in := range inputs {
		for _, n := range []int{2, 3, 9, 40} {
			d := make([]float64, n*n)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					d[i*n+j] = in.draw()
					d[j*n+i] = d[i*n+j]
					if in.asym {
						d[j*n+i] = in.draw()
					}
				}
			}
			for _, l := range []Linkage{Complete, Average} {
				out := make([]dendro.Merge, 0, n-1)
				merges, err := RunMatrixIntoWS(context.Background(), exec.Default(), nil, n, append([]float64(nil), d...), l, out)
				if err != nil {
					t.Fatal(err)
				}
				if len(merges) != n-1 {
					t.Fatalf("%s n=%d %v: %d merges, want %d", in.name, n, l, len(merges), n-1)
				}
				for i := 1; i < len(merges); i++ {
					if !(merges[i].Height >= merges[i-1].Height) {
						t.Fatalf("%s n=%d %v: merge %d at %v follows one at %v", in.name, n, l, i, merges[i].Height, merges[i-1].Height)
					}
				}
			}
		}
	}
}

func TestLinkageString(t *testing.T) {
	if Complete.String() != "complete" || Average.String() != "average" || Single.String() != "single" {
		t.Fatal("bad linkage names")
	}
}

// TestAsymmetricCycleTerminates: on an asymmetric matrix whose nearest
// neighbours form a cycle longer than two, the NN-chain must still finish
// with n−1 merges instead of growing the chain forever.
func TestAsymmetricCycleTerminates(t *testing.T) {
	const n = 6
	d := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d[i*n+j] = 3 + float64(i*n+j)/100
			}
		}
		d[i*n+(i+1)%n] = 1
	}
	for _, l := range []Linkage{Complete, Average} {
		dg, err := runMatrix(n, append([]float64(nil), d...), l)
		if err != nil {
			t.Fatal(err)
		}
		if len(dg.Merges) != n-1 {
			t.Fatalf("%v: %d merges, want %d", l, len(dg.Merges), n-1)
		}
	}
}
