package core

import (
	"context"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/hac"
	"pfg/internal/matrix"
	"pfg/internal/metrics"
	"pfg/internal/tsgen"
)

// easyDataset is a well-separated 3-class problem every method should
// solve. It is large enough (n=150) that a prefix of 10 is a small fraction
// of the data — the paper observes larger prefix-induced quality loss on
// small data sets, where the prefix is a large share of the edges.
func easyDataset() *tsgen.Dataset {
	return tsgen.GenerateClassed("easy", 150, 128, 3, 0.25, 57)
}

// correlate computes the similarity and dissimilarity of series on the
// default pool.
func correlate(t *testing.T, series [][]float64) (sim, dis *matrix.Sym) {
	t.Helper()
	sim, dis, err := matrix.PearsonDissimWS(context.Background(), exec.Default(), nil, series)
	if err != nil {
		t.Fatal(err)
	}
	return sim, dis
}

func ariOf(t *testing.T, labels []int, truth []int) float64 {
	t.Helper()
	v, err := metrics.ARI(truth, labels)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTMFGDBHTPipelineRecoversEasyClusters(t *testing.T) {
	ds := easyDataset()
	sim, dis := correlate(t, ds.Series)
	// Quality thresholds follow Figure 6: exact TMFG (prefix 1-2) recovers
	// the clusters; larger prefixes on a small data set (prefix/n ≈ 7%)
	// degrade gracefully but measurably.
	thresholds := map[int]float64{1: 0.9, 2: 0.9, 10: 0.4}
	for _, prefix := range []int{1, 2, 10} {
		res, err := TMFGDBHTWS(context.Background(), exec.Default(), nil, sim, dis, prefix)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := res.CutLabels(ds.NumClasses)
		if err != nil {
			t.Fatal(err)
		}
		if ari := ariOf(t, labels, ds.Labels); ari < thresholds[prefix] {
			t.Fatalf("prefix=%d: ARI %.3f < %.2f on easy data", prefix, ari, thresholds[prefix])
		}
		if len(res.Edges) != 3*len(ds.Series)-6 {
			t.Fatalf("graph has %d edges", len(res.Edges))
		}
		if res.Timings.Total <= 0 {
			t.Fatal("timings missing")
		}
	}
}

func TestPMFGDBHTPipeline(t *testing.T) {
	ds := easyDataset()
	sim, dis := correlate(t, ds.Series)
	res, err := PMFGDBHTWS(context.Background(), exec.Default(), nil, sim, dis)
	if err != nil {
		t.Fatal(err)
	}
	labels, err := res.CutLabels(ds.NumClasses)
	if err != nil {
		t.Fatal(err)
	}
	// PMFG+DBHT and TMFG+DBHT produce similar but not identical clusters
	// (the paper finds TMFG sometimes better); require clear signal only.
	if ari := ariOf(t, labels, ds.Labels); ari < 0.5 {
		t.Fatalf("PMFG+DBHT ARI %.3f < 0.5 on easy data", ari)
	}
	if res.EdgeWeightSum <= 0 {
		t.Fatal("edge weight sum missing")
	}
}

func TestHACBaselines(t *testing.T) {
	ds := easyDataset()
	sim, dis := correlate(t, ds.Series)
	for _, linkage := range []hac.Linkage{hac.Complete, hac.Average} {
		res, err := HACWS(context.Background(), exec.Default(), nil, sim, dis, linkage)
		if err != nil {
			t.Fatal(err)
		}
		labels, err := res.CutLabels(ds.NumClasses)
		if err != nil {
			t.Fatal(err)
		}
		// The HAC baselines are far weaker than DBHT on these multi-modal
		// correlation data (the paper's central claim — several Figure 8
		// bars for COMP/AVG sit near zero); they only need to beat chance.
		if ari := ariOf(t, labels, ds.Labels); ari < 0.1 {
			t.Fatalf("%v ARI %.3f < 0.1 on easy data", linkage, ari)
		}
	}
}

func TestPMFGAndTMFGQualityComparable(t *testing.T) {
	// Figure 7 shape: TMFG edge-weight sums land within a few percent of
	// PMFG's.
	ds := easyDataset()
	sim, dis := correlate(t, ds.Series)
	tm, err := TMFGDBHTWS(context.Background(), exec.Default(), nil, sim, dis, 1)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := PMFGDBHTWS(context.Background(), exec.Default(), nil, sim, dis)
	if err != nil {
		t.Fatal(err)
	}
	ratio := tm.EdgeWeightSum / pm.EdgeWeightSum
	if ratio < 0.9 || ratio > 1.05 {
		t.Fatalf("TMFG/PMFG weight ratio %.3f outside [0.9, 1.05]", ratio)
	}
}

func TestCutLabelsErrors(t *testing.T) {
	r := &Result{}
	if _, err := r.CutLabels(2); err == nil {
		t.Fatal("missing dendrogram accepted")
	}
}
