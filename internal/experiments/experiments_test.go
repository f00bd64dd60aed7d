package experiments

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/metrics"
	"pfg/internal/tsgen"
)

// tinyConfig keeps the smoke tests fast.
func tinyConfig() Config {
	return Config{MaxN: 80, MaxLen: 48, PMFGMaxN: 60, ScaleN: 160, Seed: 1, Quick: true}
}

func TestTable2(t *testing.T) {
	out := Table2(tinyConfig())
	if !strings.Contains(out, "ECG5000") || !strings.Contains(out, "Crop") {
		t.Fatalf("table2 missing datasets:\n%s", out)
	}
}

func TestDatasetsQuickSubset(t *testing.T) {
	ds := Datasets(tinyConfig())
	if len(ds) != 4 {
		t.Fatalf("quick mode should give 4 datasets, got %d", len(ds))
	}
	for _, d := range ds {
		if len(d.Data.Series) > 80*6/5 {
			t.Fatalf("dataset %s exceeds cap: n=%d", d.Entry.Name, len(d.Data.Series))
		}
	}
}

func TestFig1Smoke(t *testing.T) {
	out := Fig1(tinyConfig())
	for _, want := range []string{"COMP", "AVG", "PAR-TDBHT-1", "PAR-TDBHT-10", "PMFG-DBHT", "ARI"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Smoke(t *testing.T) {
	out := Fig4(tinyConfig())
	if !strings.Contains(out, "prefix") || !strings.Contains(out, "1.00x") {
		t.Fatalf("fig4 malformed:\n%s", out)
	}
}

func TestFig5Smoke(t *testing.T) {
	out := Fig5(tinyConfig())
	for _, want := range []string{"tmfg", "apsp", "bubble-tree", "hierarchy", "1 thread", "all cores"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig5 missing %q:\n%s", want, out)
		}
	}
}

func TestFig6Fig7Smoke(t *testing.T) {
	cfg := tinyConfig()
	out6 := Fig6(cfg)
	if !strings.Contains(out6, "pfx=1") || !strings.Contains(out6, "pfx=50") {
		t.Fatalf("fig6 malformed:\n%s", out6)
	}
	out7 := Fig7(cfg)
	if !strings.Contains(out7, "PMFG") {
		t.Fatalf("fig7 malformed:\n%s", out7)
	}
	// Ratios in fig7 should be near 1 (sanity parse of one cell).
	if !strings.Contains(out7, "0.9") && !strings.Contains(out7, "1.0") {
		t.Fatalf("fig7 ratios look wrong:\n%s", out7)
	}
}

func TestFig8Smoke(t *testing.T) {
	out := Fig8(tinyConfig())
	for _, want := range []string{"TDBHT-1", "KMEANS-S", "COMP"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig8 missing %q:\n%s", want, out)
		}
	}
}

func TestFig9Smoke(t *testing.T) {
	out := Fig9(tinyConfig())
	if !strings.Contains(out, "β") || !strings.Contains(out, "range") {
		t.Fatalf("fig9 malformed:\n%s", out)
	}
}

func TestFig10Fig11Smoke(t *testing.T) {
	cfg := tinyConfig()
	out10 := Fig10(cfg)
	if !strings.Contains(out10, "ARI(prefix=30)") {
		t.Fatalf("fig10 malformed:\n%s", out10)
	}
	out11 := Fig11(cfg)
	if !strings.Contains(out11, "by sector") || !strings.Contains(out11, "mix-entropy") {
		t.Fatalf("fig11 malformed:\n%s", out11)
	}
}

func TestAppendixReproducesPaperBehavior(t *testing.T) {
	out := Appendix(tinyConfig())
	if !strings.Contains(out, "prefix=1") || !strings.Contains(out, "prefix=3") {
		t.Fatalf("appendix malformed:\n%s", out)
	}
	// The paper's claims, verified in text output.
	lines := strings.Split(out, "\n")
	var p1, p3 string
	for _, l := range lines {
		if strings.HasPrefix(l, "prefix=1") {
			p1 = l
		}
		if strings.HasPrefix(l, "prefix=3") {
			p3 = l
		}
	}
	if !strings.Contains(p1, "recovered: false") {
		t.Fatalf("prefix=1 should fail to recover ground truth: %s", p1)
	}
	if !strings.Contains(p3, "recovered: true") {
		t.Fatalf("prefix=3 should recover ground truth: %s", p3)
	}
}

func TestScalingSmoke(t *testing.T) {
	out := Scaling(tinyConfig())
	if !strings.Contains(out, "fitted exponents") {
		t.Fatalf("scaling malformed:\n%s", out)
	}
}

func TestAbbreviate(t *testing.T) {
	if abbreviate("HEALTH CARE") != "HC" {
		t.Fatal("abbreviate broken")
	}
	if abbreviate("TECHNOLOGY") != "TEC" {
		t.Fatal("single word abbreviation broken")
	}
}

func TestExtrasSmoke(t *testing.T) {
	out := Extras(tinyConfig())
	for _, want := range []string{"MST-SL", "K-MEDOIDS", "TDBHT-10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("extras missing %q:\n%s", want, out)
		}
	}
}

func TestAblationAPSPSmoke(t *testing.T) {
	out := AblationAPSP(tinyConfig())
	if !strings.Contains(out, "Dijkstra") || !strings.Contains(out, "1-thread") {
		t.Fatalf("ablation-apsp malformed:\n%s", out)
	}
}

func TestAblationCopheneticSmoke(t *testing.T) {
	out := AblationCophenetic(tinyConfig())
	if !strings.Contains(out, "cophenetic") && !strings.Contains(out, "Cophenetic") {
		t.Fatalf("ablation-cophenetic malformed:\n%s", out)
	}
}

func TestMotivationSmoke(t *testing.T) {
	out := Motivation(tinyConfig())
	if !strings.Contains(out, "thr components") || !strings.Contains(out, "tmfg components") {
		t.Fatalf("motivation malformed:\n%s", out)
	}
	// The TMFG column must be all 1s (always connected).
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 7 && fields[0] != "ID" && !strings.HasPrefix(line, "-") {
			if fields[6] != "1" {
				t.Fatalf("TMFG not connected in motivation row: %s", line)
			}
		}
	}
}

func TestAblationFootnoteSmoke(t *testing.T) {
	out := AblationFootnote(tinyConfig())
	if !strings.Contains(out, "paper text") {
		t.Fatalf("ablation-footnote malformed:\n%s", out)
	}
}

// TestWithThreadsSizesDefaultPool: exec.Default rebuilds its pool when
// GOMAXPROCS changes, so a stage that takes exec.Default() inside
// withThreads(p) runs p workers, and the old size is back afterwards.
func TestWithThreadsSizesDefaultPool(t *testing.T) {
	before := runtime.GOMAXPROCS(0)
	for _, p := range []int{1, 2, 3} {
		got := 0
		withThreads(p, func() { got = exec.Default().Workers() })
		if got != p {
			t.Fatalf("withThreads(%d): Default().Workers() = %d", p, got)
		}
	}
	if got := exec.Default().Workers(); got != before {
		t.Fatalf("after withThreads: Default().Workers() = %d, want %d", got, before)
	}
}

// TestKMeansBaselines runs the two flat baselines on a well-separated
// 3-class problem (n=150). Plain k-means struggles with the multi-modal
// class manifolds (the paper's k-means is likewise competitive but not
// dominant); the spectral variant should do well.
func TestKMeansBaselines(t *testing.T) {
	ds := tsgen.GenerateClassed("easy", 150, 128, 3, 0.25, 57)
	ariOf := func(labels []int) float64 {
		t.Helper()
		v, err := metrics.ARI(ds.Labels, labels)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	labels, err := kMeans(context.Background(), exec.Default(), ds.Series, ds.NumClasses, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ari := ariOf(labels); ari < 0.3 {
		t.Fatalf("k-means ARI %.3f", ari)
	}
	sLabels, err := kMeansSpectral(context.Background(), exec.Default(), ds.Series, ds.NumClasses, 15, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ari := ariOf(sLabels); ari < 0.85 {
		t.Fatalf("spectral k-means ARI %.3f", ari)
	}
}
