package pfg

import (
	"math"
	"strings"
	"testing"

	"pfg/internal/tsgen"
)

func TestClusterEndToEnd(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 120, 96, 4, 0.3, 14)
	res, err := Cluster(ds.Series, Options{Prefix: 2})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := res.Cut(4)
	if err != nil {
		t.Fatal(err)
	}
	ari, err := ARI(ds.Labels, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ari < 0.8 {
		t.Fatalf("API pipeline ARI %.3f < 0.8", ari)
	}
	if res.EdgeWeightSum <= 0 || res.Groups < 1 {
		t.Fatalf("missing result fields: %+v", res)
	}
}

func TestClusterAllMethods(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 60, 64, 3, 0.3, 8)
	for _, m := range []Method{TMFGDBHT, PMFGDBHT, CompleteLinkage, AverageLinkage} {
		res, err := Cluster(ds.Series, Options{Method: m, Prefix: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		labels, err := res.Cut(3)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(labels) != 60 {
			t.Fatalf("%v: %d labels", m, len(labels))
		}
	}
}

func TestClusterMatrixDefaultDissimilarity(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 50, 64, 2, 0.3, 9)
	sim, err := Pearson(ds.Series)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterMatrix(sim, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Cut(2); err != nil {
		t.Fatal(err)
	}
}

func TestTMFGFacade(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 40, 64, 2, 0.3, 10)
	sim, err := Pearson(ds.Series)
	if err != nil {
		t.Fatal(err)
	}
	edges, weight, err := TMFG(sim, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3*40-6 {
		t.Fatalf("%d edges", len(edges))
	}
	if weight <= 0 {
		t.Fatalf("weight %v", weight)
	}
}

// TestRejectsMalformedMatrix: TMFG, Dissimilarity and
// Result.CopheneticCorrelation validate their matrix as ClusterMatrix does,
// returning an error instead of panicking on a short backing slice or a nil
// matrix, or computing from a NaN.
func TestRejectsMalformedMatrix(t *testing.T) {
	const n = 6
	nan := &Matrix{N: n, Data: make([]float64, n*n)}
	for i := range nan.Data {
		nan.Data[i] = 0.5
	}
	nan.Data[1*n+2], nan.Data[2*n+1] = math.NaN(), math.NaN()
	res, err := Cluster(tsgen.GenerateClassed("api", n, 32, 2, 0.3, 11).Series, Options{Method: CompleteLinkage})
	if err != nil {
		t.Fatal(err)
	}
	for _, fn := range []struct {
		name string
		call func(*Matrix) error
	}{
		{"TMFG", func(m *Matrix) error { _, _, err := TMFG(m, 1); return err }},
		{"Dissimilarity", func(m *Matrix) error { _, err := Dissimilarity(m); return err }},
		{"CopheneticCorrelation", func(m *Matrix) error { _, err := res.CopheneticCorrelation(m); return err }},
	} {
		for _, tc := range []struct {
			name string
			m    *Matrix
		}{
			{"short backing slice", &Matrix{N: 5, Data: make([]float64, 3)}},
			{"nil matrix", nil},
			{"NaN entry", nan},
		} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s, %s: panicked: %v", fn.name, tc.name, r)
					}
				}()
				if err := fn.call(tc.m); err == nil {
					t.Errorf("%s, %s: returned no error", fn.name, tc.name)
				}
			}()
		}
	}
}

func TestMethodString(t *testing.T) {
	if TMFGDBHT.String() != "tmfg-dbht" || Method(99).String() == "" {
		t.Fatal("bad method names")
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 20, 32, 2, 0.3, 11)
	if _, err := Cluster(ds.Series, Options{Method: Method(99)}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestNegativePrefixRejected(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 20, 32, 2, 0.3, 11)
	for _, m := range []Method{TMFGDBHT, PMFGDBHT, CompleteLinkage, AverageLinkage} {
		_, err := Cluster(ds.Series, Options{Method: m, Prefix: -1})
		if err == nil {
			t.Fatalf("%v: negative Prefix accepted", m)
		}
		if !strings.Contains(err.Error(), "Prefix") {
			t.Fatalf("%v: unhelpful error for negative Prefix: %v", m, err)
		}
	}
}

// TestUndersizedInputsRejected checks that inputs too small for the selected
// method produce a clear validation error from Cluster/ClusterMatrix rather
// than a panic deep inside the pipeline.
func TestUndersizedInputsRejected(t *testing.T) {
	for _, tc := range []struct {
		method Method
		n      int // one fewer series than the method's minimum
	}{
		{TMFGDBHT, 3},
		{PMFGDBHT, 3},
		{CompleteLinkage, 1},
		{AverageLinkage, 1},
	} {
		ds := tsgen.GenerateClassed("api", tc.n, 32, 1, 0.3, 11)
		_, err := Cluster(ds.Series, Options{Method: tc.method})
		if err == nil {
			t.Fatalf("%v: n=%d accepted", tc.method, tc.n)
		}
		if !strings.Contains(err.Error(), tc.method.String()) {
			t.Fatalf("%v: error does not name the method: %v", tc.method, err)
		}
		// The matrix entry point must validate identically.
		sim, perr := Pearson(ds.Series)
		if perr != nil {
			t.Fatal(perr)
		}
		if _, err := ClusterMatrix(sim, nil, Options{Method: tc.method}); err == nil {
			t.Fatalf("%v: ClusterMatrix accepted n=%d", tc.method, tc.n)
		}
		// One more series reaches the minimum and must succeed.
		ds2 := tsgen.GenerateClassed("api", tc.n+1, 32, 1, 0.3, 11)
		if _, err := Cluster(ds2.Series, Options{Method: tc.method}); err != nil {
			t.Fatalf("%v: minimum size n=%d rejected: %v", tc.method, tc.n+1, err)
		}
	}
}

// TestClusterMatrixNegativeDissimilarityRejected: a caller-supplied
// dissimilarity with a negative off-diagonal entry is an error for the
// DBHT methods, whose shortest paths need non-negative weights, instead of
// a panic inside APSP. HAC takes it as given.
func TestClusterMatrixNegativeDissimilarityRejected(t *testing.T) {
	const n = 6
	sim := &Matrix{N: n, Data: make([]float64, n*n)}
	dis := &Matrix{N: n, Data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			sim.Data[i*n+j], dis.Data[i*n+j] = 0.5, 1
			if i == j {
				sim.Data[i*n+j], dis.Data[i*n+j] = 1, 0
			}
		}
	}
	dis.Data[0*n+1], dis.Data[1*n+0] = -0.5, -0.5
	for _, m := range []Method{TMFGDBHT, PMFGDBHT} {
		_, err := ClusterMatrix(sim, dis, Options{Method: m, Workers: 1})
		if err == nil {
			t.Fatalf("%v: negative dissimilarity accepted", m)
		}
		if !strings.Contains(err.Error(), "(0,1)") || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("%v: error does not name the entry: %v", m, err)
		}
	}
	if _, err := ClusterMatrix(sim, dis, Options{Method: CompleteLinkage, Workers: 1}); err != nil {
		t.Fatalf("complete linkage: %v", err)
	}
	// A negative diagonal is never read as an edge weight.
	dis.Data[0*n+1], dis.Data[1*n+0] = 1, 1
	dis.Data[2*n+2] = -1
	if _, err := ClusterMatrix(sim, dis, Options{Method: TMFGDBHT, Workers: 1}); err != nil {
		t.Fatalf("negative diagonal rejected: %v", err)
	}
}

// TestClusterMatrixAsymmetricDissimilarity: a caller dissimilarity need not
// be symmetric. Here every object's nearest neighbour is the next one round
// a five-cycle, which the NN-chain used to follow forever (in HAC directly,
// and in DBHT's linkage over shortest-path distances); every method must
// return a full dendrogram instead.
func TestClusterMatrixAsymmetricDissimilarity(t *testing.T) {
	const n = 5
	sim := &Matrix{N: n, Data: make([]float64, n*n)}
	dis := &Matrix{N: n, Data: make([]float64, n*n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j:
				sim.Data[i*n+j] = 1
			case j == (i+1)%n:
				sim.Data[i*n+j], dis.Data[i*n+j] = 0.5, 1
			default:
				sim.Data[i*n+j], dis.Data[i*n+j] = 0.5, 2+float64(i+j)/100
			}
		}
	}
	for _, m := range []Method{TMFGDBHT, PMFGDBHT, CompleteLinkage, AverageLinkage} {
		res, err := ClusterMatrix(sim, dis, Options{Method: m, Workers: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if labels, err := res.Cut(2); err != nil || len(labels) != n {
			t.Fatalf("%v: Cut(2) = %v, %v", m, labels, err)
		}
	}
}

func TestResultNewickAndCophenetic(t *testing.T) {
	ds := tsgen.GenerateClassed("api", 30, 48, 2, 0.3, 12)
	sim, err := Pearson(ds.Series)
	if err != nil {
		t.Fatal(err)
	}
	dis, err := Dissimilarity(sim)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterMatrix(sim, dis, Options{Method: CompleteLinkage})
	if err != nil {
		t.Fatal(err)
	}
	nw, err := res.Newick(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(nw) == 0 || nw[len(nw)-1] != ';' {
		t.Fatalf("bad newick output %q", nw)
	}
	cc, err := res.CopheneticCorrelation(dis)
	if err != nil {
		t.Fatal(err)
	}
	if cc <= 0 || cc > 1 {
		t.Fatalf("cophenetic correlation %v out of range", cc)
	}
}
