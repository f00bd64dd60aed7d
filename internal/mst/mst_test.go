package mst

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/hac"
	"pfg/internal/matrix"
)

func randomDis(rng *rand.Rand, n int) *matrix.Sym {
	d := matrix.NewSym(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d.Set(i, j, rng.Float64()+0.01)
		}
	}
	return d
}

// kruskalWeight computes the MST total weight independently via Kruskal.
func kruskalWeight(d *matrix.Sym) float64 {
	n := d.N
	type e struct {
		w    float64
		u, v int32
	}
	var edges []e
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, e{w: d.At(i, j), u: int32(i), v: int32(j)})
		}
	}
	for i := 1; i < len(edges); i++ {
		for j := i; j > 0 && edges[j].w < edges[j-1].w; j-- {
			edges[j], edges[j-1] = edges[j-1], edges[j]
		}
	}
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	total := 0.0
	count := 0
	for _, ed := range edges {
		a, b := find(ed.u), find(ed.v)
		if a != b {
			parent[a] = b
			total += ed.w
			count++
		}
	}
	if count != n-1 {
		panic("kruskal incomplete")
	}
	return total
}

func TestMSTMatchesKruskal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		d := randomDis(rng, n)
		edges, err := MinimumSpanningTree(d)
		if err != nil {
			return false
		}
		if len(edges) != n-1 {
			return false
		}
		total := 0.0
		for _, e := range edges {
			total += e.W
		}
		return math.Abs(total-kruskalWeight(d)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMSTIsSpanningTree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := randomDis(rng, 25)
	edges, err := MinimumSpanningTree(d)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdgesWS(nil, 25, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumComponentsWithout(nil, nil) != 1 {
		t.Fatal("MST not connected")
	}
	if g.NumEdges() != 24 {
		t.Fatalf("MST has %d edges", g.NumEdges())
	}
}

func TestMSTRejectsTiny(t *testing.T) {
	if _, err := MinimumSpanningTree(matrix.NewSym(1)); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestSingleLinkageMatchesHAC(t *testing.T) {
	// The MST-derived hierarchy must equal NN-chain single linkage.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		d := randomDis(rng, n)
		a, err := SingleLinkage(d)
		if err != nil {
			return false
		}
		b, err := hac.RunMatrixWS(context.Background(), exec.Default(), nil, n, append([]float64{}, d.Data...), hac.Single)
		if err != nil {
			return false
		}
		if len(a.Merges) != len(b.Merges) {
			return false
		}
		for i := range a.Merges {
			if math.Abs(a.Merges[i].Height-b.Merges[i].Height) > 1e-9 {
				return false
			}
		}
		// Same partitions at a few cuts.
		for _, k := range []int{1, 2, n / 2} {
			if k < 1 {
				continue
			}
			la, e1 := a.Cut(k)
			lb, e2 := b.Cut(k)
			if e1 != nil || e2 != nil {
				return false
			}
			pairs := map[[2]int]bool{}
			for i := range la {
				pairs[[2]int{la[i], lb[i]}] = true
			}
			seen := map[int]bool{}
			for p := range pairs {
				if seen[p[0]] {
					return false
				}
				seen[p[0]] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleLinkageValid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := randomDis(rng, 40)
	dd, err := SingleLinkage(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := dd.Validate(1e-12); err != nil {
		t.Fatal(err)
	}
	one, err := SingleLinkage(matrix.NewSym(1))
	if err != nil || len(one.Merges) != 0 {
		t.Fatal("n=1 should give empty dendrogram")
	}
}
