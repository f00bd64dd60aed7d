package tsgen

import (
	"context"
	"math"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/matrix"
)

// pearson correlates series on the default pool without a workspace.
func pearson(series [][]float64) (*matrix.Sym, error) {
	return matrix.PearsonWS(context.Background(), exec.Default(), nil, series)
}

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 18 {
		t.Fatalf("catalog has %d entries, want 18", len(cat))
	}
	for i, e := range cat {
		if e.ID != i+1 {
			t.Fatalf("entry %d has ID %d", i, e.ID)
		}
		if e.N < e.Classes*2 || e.Length < 8 || e.Noise <= 0 {
			t.Fatalf("bad entry %+v", e)
		}
	}
	// Spot-check against Table II.
	if cat[5].Name != "ECG5000" || cat[5].N != 5000 || cat[5].Length != 140 || cat[5].Classes != 5 {
		t.Fatalf("ECG5000 entry wrong: %+v", cat[5])
	}
	if cat[16].Name != "Crop" || cat[16].N != 19412 || cat[16].Classes != 24 {
		t.Fatalf("Crop entry wrong: %+v", cat[16])
	}
}

func TestGenerateRespectsCaps(t *testing.T) {
	e := Catalog()[0]
	ds := Generate(e, 100, 64, 1)
	if len(ds.Series) != 100 {
		t.Fatalf("n=%d want 100", len(ds.Series))
	}
	if ds.Length != 64 || len(ds.Series[0]) != 64 {
		t.Fatalf("length=%d want 64", ds.Length)
	}
	// Uncapped keeps paper sizes.
	ds2 := Generate(Catalog()[14], 0, 0, 1)
	if len(ds2.Series) != 980 {
		t.Fatalf("uncapped n=%d want 980", len(ds2.Series))
	}
}

func TestGenerateDeterministic(t *testing.T) {
	e := Catalog()[3]
	a := Generate(e, 50, 50, 9)
	b := Generate(e, 50, 50, 9)
	for i := range a.Series {
		for t0 := range a.Series[i] {
			if a.Series[i][t0] != b.Series[i][t0] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	c := Generate(e, 50, 50, 10)
	same := true
	for i := range a.Series {
		for t0 := range a.Series[i] {
			if a.Series[i][t0] != c.Series[i][t0] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds gave identical data")
	}
}

func TestLabelsBalanced(t *testing.T) {
	ds := GenerateClassed("x", 90, 32, 3, 0.3, 4)
	counts := map[int]int{}
	for _, l := range ds.Labels {
		counts[l]++
	}
	if len(counts) != 3 {
		t.Fatalf("got %d classes", len(counts))
	}
	for c, n := range counts {
		if n != 30 {
			t.Fatalf("class %d has %d members", c, n)
		}
	}
}

func TestWithinClassCorrelationHigher(t *testing.T) {
	ds := GenerateClassed("x", 60, 128, 3, 0.4, 5)
	corr, err := pearson(ds.Series)
	if err != nil {
		t.Fatal(err)
	}
	var within, across float64
	var nw, na int
	for i := 0; i < 60; i++ {
		for j := i + 1; j < 60; j++ {
			if ds.Labels[i] == ds.Labels[j] {
				within += corr.At(i, j)
				nw++
			} else {
				across += corr.At(i, j)
				na++
			}
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if within < across+0.2 {
		t.Fatalf("within-class correlation %.3f not clearly above cross-class %.3f", within, across)
	}
}

func TestNoiseControlsDifficulty(t *testing.T) {
	easy := GenerateClassed("e", 40, 128, 2, 0.1, 6)
	hard := GenerateClassed("h", 40, 128, 2, 3.0, 6)
	sep := func(ds *Dataset) float64 {
		corr, _ := pearson(ds.Series)
		var within, across float64
		var nw, na int
		for i := 0; i < 40; i++ {
			for j := i + 1; j < 40; j++ {
				if ds.Labels[i] == ds.Labels[j] {
					within += corr.At(i, j)
					nw++
				} else {
					across += corr.At(i, j)
					na++
				}
			}
		}
		return within/float64(nw) - across/float64(na)
	}
	if sep(easy) <= sep(hard) {
		t.Fatal("higher noise should reduce class separation")
	}
}

func TestGenerateStocksBasics(t *testing.T) {
	sd := GenerateStocks(200, 250, 7)
	if len(sd.Returns) != 200 || len(sd.Prices) != 200 || len(sd.Sector) != 200 {
		t.Fatal("wrong output sizes")
	}
	for i := range sd.Returns {
		if len(sd.Returns[i]) != 250 {
			t.Fatal("wrong days")
		}
		if sd.Sector[i] < 0 || sd.Sector[i] >= len(SectorNames) {
			t.Fatalf("bad sector %d", sd.Sector[i])
		}
		if sd.MarketCap[i] <= 0 {
			t.Fatal("non-positive market cap")
		}
		// Detrended: mean return ≈ 0.
		mean := 0.0
		for _, r := range sd.Returns[i] {
			mean += r
		}
		if math.Abs(mean/250) > 1e-12 {
			t.Fatalf("returns of stock %d not detrended", i)
		}
		for _, p := range sd.Prices[i] {
			if p <= 0 || math.IsNaN(p) {
				t.Fatal("bad price path")
			}
		}
	}
	// All sectors present.
	seen := map[int]bool{}
	for _, s := range sd.Sector {
		seen[s] = true
	}
	if len(seen) != len(SectorNames) {
		t.Fatalf("only %d sectors present", len(seen))
	}
}

func TestStockSectorCorrelationStructure(t *testing.T) {
	sd := GenerateStocks(150, 400, 8)
	corr, err := pearson(sd.Returns)
	if err != nil {
		t.Fatal(err)
	}
	var within, across float64
	var nw, na int
	for i := 0; i < 150; i++ {
		for j := i + 1; j < 150; j++ {
			if sd.Sector[i] == sd.Sector[j] {
				within += corr.At(i, j)
				nw++
			} else {
				across += corr.At(i, j)
				na++
			}
		}
	}
	within /= float64(nw)
	across /= float64(na)
	if within < across+0.05 {
		t.Fatalf("same-sector correlation %.3f not above cross-sector %.3f", within, across)
	}
}

func TestSmallCapsNoisier(t *testing.T) {
	sd := GenerateStocks(300, 300, 9)
	// Correlation of small caps with their sector peers should be weaker.
	corr, _ := pearson(sd.Returns)
	sectorPeerCorr := func(i int) float64 {
		s, c := 0.0, 0
		for j := range sd.Returns {
			if j != i && sd.Sector[j] == sd.Sector[i] {
				s += corr.At(i, j)
				c++
			}
		}
		return s / float64(c)
	}
	var small, large []float64
	for i := range sd.Returns {
		if sd.MarketCap[i] < 2e8 {
			small = append(small, sectorPeerCorr(i))
		} else if sd.MarketCap[i] > 5e9 {
			large = append(large, sectorPeerCorr(i))
		}
	}
	if len(small) == 0 || len(large) == 0 {
		t.Skip("cap distribution did not produce both tails")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(small) >= mean(large) {
		t.Fatalf("small caps (%.3f) should correlate less than large caps (%.3f)", mean(small), mean(large))
	}
}
