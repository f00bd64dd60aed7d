package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"

	"pfg/internal/core"
	"pfg/internal/exec"
	"pfg/internal/hac"
	"pfg/internal/metrics"
	"pfg/internal/pmfg"
	"pfg/internal/tmfg"
	"pfg/internal/ws"
)

// Fig6 reproduces Figure 6: ARI of PAR-TDBHT across prefix sizes per
// data set.
func Fig6(cfg Config) string {
	var b strings.Builder
	b.WriteString("Figure 6: clustering quality (ARI) of PAR-TDBHT by prefix size\n")
	prefixes := prefixSweep(cfg)
	headers := []string{"ID", "dataset"}
	for _, p := range prefixes {
		headers = append(headers, fmt.Sprintf("pfx=%d", p))
	}
	tw := newTable(&b, headers...)
	w := ws.Get()
	defer ws.Put(w)
	for _, d := range sortedIDs(Datasets(cfg)) {
		sim, dis := correlate(w, d.Data.Series)
		row := []string{fmt.Sprint(d.Entry.ID), d.Entry.Name}
		for _, prefix := range prefixes {
			r := mustTMFGDBHT(w, sim, dis, prefix)
			labels, err := r.CutLabels(d.Data.NumClasses)
			if err != nil {
				row = append(row, "err")
				continue
			}
			ari, _ := metrics.ARI(d.Data.Labels, labels)
			row = append(row, fmt.Sprintf("%.3f", ari))
		}
		tw.row(row...)
	}
	tw.flush()
	b.WriteString("\nShape check: quality degrades gently with prefix, more on small sets.\n")
	return b.String()
}

// Fig7 reproduces Figure 7: the ratio of each filtered graph's edge-weight
// sum to the exact sequential TMFG's (prefix 1), including PMFG.
func Fig7(cfg Config) string {
	var b strings.Builder
	b.WriteString("Figure 7: edge-weight-sum ratio vs SEQ-TMFG\n")
	prefixes := prefixSweep(cfg)
	headers := []string{"ID", "PMFG"}
	for _, p := range prefixes {
		if p == 1 {
			continue
		}
		headers = append(headers, fmt.Sprintf("pfx=%d", p))
	}
	tw := newTable(&b, headers...)
	w := ws.Get()
	defer ws.Put(w)
	ctx := context.Background()
	for _, d := range sortedIDs(Datasets(cfg)) {
		sim, _ := correlate(w, d.Data.Series)
		exact, err := tmfg.BuildWS(ctx, exec.Default(), w, sim, 1)
		if err != nil {
			panic(err)
		}
		base := exact.EdgeWeightSum(sim)
		row := []string{fmt.Sprint(d.Entry.ID)}
		if len(d.Data.Series) <= cfg.PMFGMaxN {
			p, err := pmfg.BuildCtx(ctx, exec.Default(), sim)
			if err != nil {
				panic(err)
			}
			row = append(row, fmt.Sprintf("%.4f", p.EdgeWeightSum(sim)/base))
		} else {
			row = append(row, "timeout")
		}
		for _, prefix := range prefixes {
			if prefix == 1 {
				continue
			}
			r, err := tmfg.BuildWS(ctx, exec.Default(), w, sim, prefix)
			if err != nil {
				panic(err)
			}
			row = append(row, fmt.Sprintf("%.4f", r.EdgeWeightSum(sim)/base))
		}
		tw.row(row...)
	}
	tw.flush()
	b.WriteString("\nShape check: prefix ≤ 50 stays within a few percent of SEQ-TMFG;\nPMFG's ratio is the highest (it is the greedier filter).\n")
	return b.String()
}

// Fig8 reproduces Figure 8: ARI of every method on every data set.
func Fig8(cfg Config) string {
	var b strings.Builder
	b.WriteString("Figure 8: clustering quality (ARI) of all methods\n")
	tw := newTable(&b, "ID", "TDBHT-1", "TDBHT-10", "PMFG", "COMP", "AVG", "KMEANS", "KMEANS-S")
	w := ws.Get()
	defer ws.Put(w)
	ctx := context.Background()
	for _, d := range sortedIDs(Datasets(cfg)) {
		sim, dis := correlate(w, d.Data.Series)
		k := d.Data.NumClasses
		truth := d.Data.Labels
		cell := func(labels []int, err error) string {
			if err != nil {
				return "err"
			}
			v, _ := metrics.ARI(truth, labels)
			return fmt.Sprintf("%.3f", v)
		}
		hierCell := func(r *core.Result, err error) string {
			if err != nil {
				return "err"
			}
			labels, err := r.CutLabels(k)
			return cell(labels, err)
		}
		row := []string{fmt.Sprint(d.Entry.ID)}
		pool := exec.Default()
		row = append(row, hierCell(core.TMFGDBHTWS(ctx, pool, w, sim, dis, 1)))
		row = append(row, hierCell(core.TMFGDBHTWS(ctx, pool, w, sim, dis, 10)))
		if len(d.Data.Series) <= cfg.PMFGMaxN {
			row = append(row, hierCell(core.PMFGDBHTWS(ctx, pool, w, sim, dis)))
		} else {
			row = append(row, "timeout")
		}
		row = append(row, hierCell(core.HACWS(ctx, pool, w, dis, hac.Complete)))
		row = append(row, hierCell(core.HACWS(ctx, pool, w, dis, hac.Average)))
		row = append(row, cell(core.KMeansCtx(ctx, pool, d.Data.Series, k, cfg.Seed)))
		beta := bestBeta(len(d.Data.Series))
		row = append(row, cell(core.KMeansSpectralCtx(ctx, pool, d.Data.Series, k, beta, cfg.Seed)))
		tw.row(row...)
	}
	tw.flush()
	b.WriteString("\nShape check: TDBHT beats COMP/AVG on most sets and is competitive\nwith k-means; PMFG and TMFG quality are similar.\n")
	return b.String()
}

// bestBeta is the default neighbor count for the spectral baseline.
func bestBeta(n int) int {
	beta := n / 10
	if beta < 8 {
		beta = 8
	}
	if beta >= n {
		beta = n - 1
	}
	return beta
}

// Fig9 reproduces Figure 9: K-MEANS-S quality versus the number of nearest
// neighbors β, demonstrating the oscillating parameter sensitivity.
func Fig9(cfg Config) string {
	var b strings.Builder
	b.WriteString("Figure 9: K-MEANS-S ARI vs number of neighbors β\n")
	ds := Datasets(cfg)
	if len(ds) > 6 && !cfg.Quick {
		ds = ds[:6]
	}
	tw := newTable(&b, "ID", "β", "ARI")
	for _, d := range sortedIDs(ds) {
		n := len(d.Data.Series)
		var lo, hi float64 = math.Inf(1), math.Inf(-1)
		for _, beta := range []int{8, n / 20, n / 10, n / 5, n / 2} {
			if beta < 2 || beta >= n {
				continue
			}
			labels, err := core.KMeansSpectralCtx(context.Background(), exec.Default(), d.Data.Series, d.Data.NumClasses, beta, cfg.Seed)
			if err != nil {
				continue
			}
			ari, _ := metrics.ARI(d.Data.Labels, labels)
			lo = math.Min(lo, ari)
			hi = math.Max(hi, ari)
			tw.row(fmt.Sprint(d.Entry.ID), fmt.Sprint(beta), fmt.Sprintf("%.3f", ari))
		}
		tw.row(fmt.Sprint(d.Entry.ID), "range", fmt.Sprintf("%.3f", hi-lo))
	}
	tw.flush()
	b.WriteString("\nShape check: the β ranges are wide — quality is parameter-sensitive.\n")
	return b.String()
}
