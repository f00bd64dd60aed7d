// Package tsgen generates the synthetic workloads that substitute for the
// paper's data sets:
//
//   - A catalog of UCR-like time-series classification data sets mirroring
//     Table II's (n, length, #classes) shapes, generated from random smooth
//     Fourier class prototypes with phase jitter, amplitude scaling, and
//     Gaussian noise. The per-entry noise level is varied so clustering
//     difficulty (and thus the ARI spread across methods) resembles the
//     paper's.
//   - A US-stock-market-like factor model: market factor + sector factors +
//     idiosyncratic noise for 11 named sectors, with log-normal market caps
//     where small-cap stocks receive more idiosyncratic noise (reproducing
//     the Figure 10/11 scenario).
//
// All generators are deterministic given a seed.
package tsgen

import (
	"fmt"
	"math"
	"math/rand"
)

// Dataset is a labeled time-series collection.
type Dataset struct {
	Name       string
	Series     [][]float64
	Labels     []int
	NumClasses int
	Length     int
}

// CatalogEntry describes one synthetic data set, mirroring a Table II row.
type CatalogEntry struct {
	ID      int
	Name    string
	N       int // object count in the paper (scaled at generation time)
	Length  int
	Classes int
	// Noise is the per-entry noise level controlling clustering difficulty.
	Noise float64
}

// Catalog returns the 18 entries of Table II. The Noise levels are chosen so
// the catalog spans easy (clear clusters) through hard (heavily mixed),
// mirroring the ARI spread in the paper's Figure 8.
func Catalog() []CatalogEntry {
	return []CatalogEntry{
		{1, "Mallat", 2400, 1024, 8, 0.4},
		{2, "UWaveGestureLibraryAll", 4478, 945, 8, 0.7},
		{3, "NonInvasiveFetalECGThorax2", 3765, 750, 42, 0.6},
		{4, "MixedShapesRegularTrain", 2925, 1024, 5, 0.5},
		{5, "MixedShapesSmallTrain", 2525, 1024, 5, 0.6},
		{6, "ECG5000", 5000, 140, 5, 0.8},
		{7, "NonInvasiveFetalECGThorax1", 3765, 750, 42, 0.7},
		{8, "StarLightCurves", 9236, 84, 2, 0.9},
		{9, "HandOutlines", 1370, 2709, 2, 1.4},
		{10, "UWaveGestureLibraryX", 4478, 315, 8, 0.9},
		{11, "CBF", 930, 128, 3, 0.5},
		{12, "InsectWingbeatSound", 2200, 256, 11, 1.1},
		{13, "UWaveGestureLibraryY", 4478, 315, 8, 1.0},
		{14, "ShapesAll", 1200, 512, 60, 0.6},
		{15, "SonyAIBORobotSurface2", 980, 65, 2, 0.8},
		{16, "FreezerSmallTrain", 2878, 301, 2, 0.7},
		{17, "Crop", 19412, 46, 24, 1.0},
		{18, "ElectricDevices", 16160, 96, 7, 1.2},
	}
}

// Generate materializes a catalog entry. maxN caps the object count (0 means
// no cap) and maxLen caps the series length (0 means no cap); the paper's
// sizes make the Θ(n²)-memory baselines too large for small machines, so
// the experiment harness scales them down proportionally.
func Generate(e CatalogEntry, maxN, maxLen int, seed int64) *Dataset {
	n, l := e.N, e.Length
	if maxN > 0 && n > maxN {
		n = maxN
	}
	if maxLen > 0 && l > maxLen {
		l = maxLen
	}
	if n < e.Classes*2 {
		n = e.Classes * 2
	}
	return GenerateClassed(e.Name, n, l, e.Classes, e.Noise, seed)
}

// GenerateClassed generates n series of the given length split evenly among
// the classes, with the given noise level.
func GenerateClassed(name string, n, length, classes int, noise float64, seed int64) *Dataset {
	if classes < 1 || n < classes || length < 8 {
		panic(fmt.Sprintf("tsgen: bad parameters n=%d length=%d classes=%d", n, length, classes))
	}
	rng := rand.New(rand.NewSource(seed))
	// Class prototypes: random Fourier series with a handful of harmonics.
	// Each class has two "modes" sharing most harmonics (UCR classes are
	// multi-modal and elongated, which is what distinguishes topology-aware
	// clustering from purely agglomerative linkage on these data).
	const harmonics = 6
	type proto struct {
		amp, freq, phase [harmonics]float64
	}
	protos := make([]proto, 2*classes)
	for c := 0; c < classes; c++ {
		a := &protos[2*c]
		for h := 0; h < harmonics; h++ {
			a.amp[h] = rng.Float64() * 2 / float64(h+1)
			a.freq[h] = 1 + rng.Float64()*9
			a.phase[h] = rng.Float64() * 2 * math.Pi
		}
		// Mode B: redraw the two highest harmonics and nudge the phases.
		b := &protos[2*c+1]
		*b = *a
		for h := harmonics - 2; h < harmonics; h++ {
			b.amp[h] = rng.Float64() * 2 / float64(h+1)
			b.freq[h] = 1 + rng.Float64()*9
			b.phase[h] = rng.Float64() * 2 * math.Pi
		}
		for h := 0; h < harmonics-2; h++ {
			b.phase[h] += rng.NormFloat64() * 0.25
		}
	}
	eval := func(p *proto, t, shift, ampScale float64) float64 {
		v := 0.0
		for h := 0; h < harmonics; h++ {
			v += p.amp[h] * math.Sin(p.freq[h]*(t+shift)*2*math.Pi+p.phase[h])
		}
		return v * ampScale
	}
	ds := &Dataset{Name: name, NumClasses: classes, Length: length}
	for i := 0; i < n; i++ {
		c := i % classes
		mode := 2 * c
		if rng.Float64() < 0.4 {
			mode++
		}
		shift := rng.NormFloat64() * 0.03
		ampScale := 1 + rng.NormFloat64()*0.15
		s := make([]float64, length)
		for t := 0; t < length; t++ {
			x := float64(t) / float64(length)
			s[t] = eval(&protos[mode], x, shift, ampScale) + rng.NormFloat64()*noise
		}
		ds.Series = append(ds.Series, s)
		ds.Labels = append(ds.Labels, c)
	}
	return ds
}

// SectorNames are the 11 ICB-style industry names of Figure 10.
var SectorNames = []string{
	"TECHNOLOGY", "INDUSTRIALS", "FINANCIALS", "HEALTH CARE",
	"CONSUMER DISCRETIONARY", "REAL ESTATE", "UTILITIES",
	"CONSUMER STAPLES", "BASIC MATERIALS", "ENERGY", "TELECOMMUNICATIONS",
}

// sectorShares approximate the relative sizes of the sectors in the paper's
// 1614-stock universe.
var sectorShares = []float64{0.16, 0.15, 0.15, 0.12, 0.12, 0.07, 0.05, 0.06, 0.05, 0.05, 0.02}

// StockData is a synthetic stock-market panel.
type StockData struct {
	// Returns[i] is stock i's detrended daily log-return series.
	Returns [][]float64
	// Prices[i] is the cumulated price path (starting at 100).
	Prices [][]float64
	// Sector[i] indexes into SectorNames.
	Sector []int
	// MarketCap[i] is a log-normal market capitalization.
	MarketCap []float64
}

// GenerateStocks generates n stocks over the given number of trading days
// using a market + sector factor model. Smaller-cap stocks receive more
// idiosyncratic noise, which makes their correlations weaker and their
// clusters more mixed — the effect Figure 11 documents.
func GenerateStocks(n, days int, seed int64) *StockData {
	if n < len(SectorNames) || days < 16 {
		panic(fmt.Sprintf("tsgen: need n ≥ %d and days ≥ 16, got n=%d days=%d", len(SectorNames), n, days))
	}
	rng := rand.New(rand.NewSource(seed))
	k := len(SectorNames)
	// Assign sectors by share.
	sector := make([]int, n)
	idx := 0
	for s := 0; s < k; s++ {
		count := int(math.Round(sectorShares[s] * float64(n)))
		if s == k-1 {
			count = n - idx
		}
		for c := 0; c < count && idx < n; c++ {
			sector[idx] = s
			idx++
		}
	}
	for ; idx < n; idx++ {
		sector[idx] = rng.Intn(k)
	}
	// Market caps: log-normal.
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = math.Exp(rng.NormFloat64()*2 + 21) // ~1e9 median
	}
	// Factor paths.
	market := make([]float64, days)
	sectors := make([][]float64, k)
	for t := range market {
		market[t] = rng.NormFloat64() * 0.01
	}
	for s := range sectors {
		sectors[s] = make([]float64, days)
		for t := range sectors[s] {
			sectors[s][t] = rng.NormFloat64() * 0.012
		}
	}
	sd := &StockData{Sector: sector, MarketCap: caps}
	capMedian := 21.0 // log scale center
	for i := 0; i < n; i++ {
		betaM := 0.6 + rng.Float64()*0.9
		betaS := 0.7 + rng.Float64()*0.9
		// Idiosyncratic volatility grows as cap shrinks.
		capZ := (math.Log(caps[i]) - capMedian) / 2
		idio := 0.012 * math.Exp(-0.45*capZ)
		if idio > 0.08 {
			idio = 0.08
		}
		ret := make([]float64, days)
		price := make([]float64, days)
		p := 100.0
		for t := 0; t < days; t++ {
			r := betaM*market[t] + betaS*sectors[sector[i]][t] + rng.NormFloat64()*idio
			ret[t] = r
			p *= math.Exp(r)
			price[t] = p
		}
		// Detrend (remove the mean log-return, as in Musmeci et al.).
		mean := 0.0
		for _, r := range ret {
			mean += r
		}
		mean /= float64(days)
		for t := range ret {
			ret[t] -= mean
		}
		sd.Returns = append(sd.Returns, ret)
		sd.Prices = append(sd.Prices, price)
	}
	return sd
}
