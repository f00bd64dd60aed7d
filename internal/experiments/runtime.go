package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"pfg/internal/core"
	"pfg/internal/exec"
	"pfg/internal/hac"
	"pfg/internal/metrics"
	"pfg/internal/tsgen"
	"pfg/internal/ws"
)

// methodRun couples a method's runtime and quality on one data set.
type methodRun struct {
	name    string
	elapsed time.Duration
	ari     float64
	skipped bool
}

// runAllMethods executes the hierarchical methods of Figures 1/3/8 on a
// data set, cutting each dendrogram at the ground-truth class count, with
// scratch from w.
func runAllMethods(cfg Config, w *ws.Workspace, d Dataset, includePMFG bool) []methodRun {
	sim, dis := correlate(w, d.Data.Series)
	ctx := context.Background()
	truth := d.Data.Labels
	k := d.Data.NumClasses
	cutARI := func(r *core.Result) float64 {
		labels, err := r.CutLabels(k)
		if err != nil {
			return math.NaN()
		}
		v, _ := metrics.ARI(truth, labels)
		return v
	}
	var out []methodRun
	run := func(name string, f func() *core.Result) {
		var r *core.Result
		el := timeIt(func() { r = f() })
		out = append(out, methodRun{name: name, elapsed: el, ari: cutARI(r)})
	}
	run("COMP", func() *core.Result {
		r, err := core.HACWS(ctx, exec.Default(), w, sim, dis, hac.Complete)
		if err != nil {
			panic(err)
		}
		return r
	})
	run("AVG", func() *core.Result {
		r, err := core.HACWS(ctx, exec.Default(), w, sim, dis, hac.Average)
		if err != nil {
			panic(err)
		}
		return r
	})
	run("PAR-TDBHT-1", func() *core.Result { return mustTMFGDBHT(w, sim, dis, 1) })
	run("PAR-TDBHT-10", func() *core.Result { return mustTMFGDBHT(w, sim, dis, 10) })
	if includePMFG {
		if len(d.Data.Series) <= cfg.PMFGMaxN {
			run("PMFG-DBHT", func() *core.Result {
				r, err := core.PMFGDBHTWS(ctx, exec.Default(), w, sim, dis)
				if err != nil {
					panic(err)
				}
				return r
			})
		} else {
			out = append(out, methodRun{name: "PMFG-DBHT", skipped: true})
		}
	}
	return out
}

// Fig1 reproduces Figure 1: sequential (1-thread) runtime versus clustering
// quality for PMFG+DBHT, TMFG+DBHT, and the two HAC baselines.
func Fig1(cfg Config) string {
	var b strings.Builder
	b.WriteString("Figure 1: sequential runtime vs clustering quality (ARI)\n")
	tw := newTable(&b, "ID", "dataset", "method", "1-thread time", "ARI")
	w := ws.Get()
	defer ws.Put(w)
	for _, d := range sortedIDs(Datasets(cfg)) {
		var runs []methodRun
		withThreads(1, func() { runs = runAllMethods(cfg, w, d, true) })
		for _, r := range runs {
			if r.skipped {
				tw.row(fmt.Sprint(d.Entry.ID), d.Entry.Name, r.name, "timeout", "-")
				continue
			}
			tw.row(fmt.Sprint(d.Entry.ID), d.Entry.Name, r.name, fmtDur(r.elapsed), fmt.Sprintf("%.3f", r.ari))
		}
	}
	tw.flush()
	b.WriteString("\nShape check: PMFG-DBHT and TMFG-DBHT should be slower but higher-ARI\nthan COMP/AVG on most data sets.\n")
	return b.String()
}

// Fig3 reproduces Figure 3: per-data-set runtimes of all methods on one
// thread (top plot) and on all cores (bottom plot).
func Fig3(cfg Config) string {
	var b strings.Builder
	b.WriteString("Figure 3: runtimes on 1 thread and on all cores\n")
	tw := newTable(&b, "ID", "method", "1-thread", "all-cores", "speedup")
	w := ws.Get()
	defer ws.Put(w)
	for _, d := range sortedIDs(Datasets(cfg)) {
		type pair struct {
			seq, par time.Duration
			skipped  bool
		}
		acc := map[string]*pair{}
		order := []string{}
		withThreads(1, func() {
			for _, r := range runAllMethods(cfg, w, d, true) {
				acc[r.name] = &pair{seq: r.elapsed, skipped: r.skipped}
				order = append(order, r.name)
			}
		})
		for _, r := range runAllMethods(cfg, w, d, true) {
			acc[r.name].par = r.elapsed
		}
		for _, name := range order {
			p := acc[name]
			if p.skipped {
				tw.row(fmt.Sprint(d.Entry.ID), name, "timeout", "timeout", "-")
				continue
			}
			tw.row(fmt.Sprint(d.Entry.ID), name,
				fmtDur(p.seq), fmtDur(p.par),
				fmt.Sprintf("%.2fx", float64(p.seq)/float64(p.par)))
		}
	}
	tw.flush()
	return b.String()
}

// Fig4 reproduces Figure 4: self-relative speedup versus thread count for
// PAR-TDBHT with different prefix sizes on the largest ("Crop"-like) set.
func Fig4(cfg Config) string {
	entry := tsgen.Catalog()[16] // Crop
	data := tsgen.Generate(entry, cfg.ScaleN, cfg.MaxLen, cfg.Seed)
	w := ws.Get()
	defer ws.Put(w)
	sim, dis := correlate(w, data.Series)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: self-relative speedup vs threads (%s-like, n=%d)\n", entry.Name, len(data.Series))
	threads := threadCounts()
	headers := []string{"prefix"}
	for _, p := range threads {
		headers = append(headers, fmt.Sprintf("p=%d", p))
	}
	tw := newTable(&b, headers...)
	for _, prefix := range prefixSweep(cfg) {
		row := []string{fmt.Sprint(prefix)}
		var base time.Duration
		for i, p := range threads {
			var el time.Duration
			withThreads(p, func() {
				el = timeWarm(func() { mustTMFGDBHT(w, sim, dis, prefix) })
			})
			if i == 0 {
				base = el
				row = append(row, fmt.Sprintf("1.00x (%s)", fmtDur(el)))
			} else {
				row = append(row, fmt.Sprintf("%.2fx", float64(base)/float64(el)))
			}
		}
		tw.row(row...)
	}
	tw.flush()
	b.WriteString("\nShape check: TMFG face gains are lazy, so the prefix barely moves the 1-thread\n" +
		"time. Each cell is the median of three calls after a warm-up (Quick mode,\n" +
		"2 vCPUs: 0.97-1.02x at p=2 in 8 of 9 cells over three runs, 1.56x in the ninth).\n")
	return b.String()
}

// Fig5 reproduces Figure 5: the per-stage runtime breakdown (tmfg, apsp,
// bubble-tree, hierarchy) across prefix sizes on the ECG5000-like set, on
// one thread and on all cores.
func Fig5(cfg Config) string {
	entry := tsgen.Catalog()[5] // ECG5000
	data := tsgen.Generate(entry, cfg.ScaleN, cfg.MaxLen, cfg.Seed)
	w := ws.Get()
	defer ws.Put(w)
	sim, dis := correlate(w, data.Series)
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 5: runtime breakdown (%s-like, n=%d)\n", entry.Name, len(data.Series))
	for _, mode := range []struct {
		name    string
		threads int
	}{{"1 thread", 1}, {"all cores", 0}} {
		fmt.Fprintf(&b, "\n[%s]\n", mode.name)
		tw := newTable(&b, "prefix", "tmfg", "apsp", "bubble-tree", "hierarchy", "total")
		for _, prefix := range prefixSweep(cfg) {
			var r *core.Result
			f := func() { r = mustTMFGDBHT(w, sim, dis, prefix) }
			if mode.threads > 0 {
				withThreads(mode.threads, f)
			} else {
				f()
			}
			tw.row(fmt.Sprint(prefix),
				fmtDur(r.Timings.Graph), fmtDur(r.Timings.APSP),
				fmtDur(r.Timings.BubbleTree), fmtDur(r.Timings.Hierarchy),
				fmtDur(r.Timings.Total))
		}
		tw.flush()
	}
	b.WriteString("\nShape check: apsp dominates sequentially, then tmfg; bubble-tree is negligible;\n" +
		"with lazy face gains the tmfg stage costs about the same at every prefix\n" +
		"(Quick mode, 2 vCPUs: 4-6 ms at prefixes 1-50, one thread or all cores).\n")
	return b.String()
}

// Scaling reports how runtime grows with n, the §VII-A observation
// (≈ n^2.2 sequentially, flatter in parallel).
func Scaling(cfg Config) string {
	entry := tsgen.Catalog()[16]
	sizes := []int{cfg.ScaleN / 8, cfg.ScaleN / 4, cfg.ScaleN / 2, cfg.ScaleN}
	var b strings.Builder
	b.WriteString("Scaling with data size (TMFG+DBHT, prefix 10)\n")
	tw := newTable(&b, "n", "1-thread", "all-cores")
	type obs struct {
		n        int
		seq, par float64
	}
	var observations []obs
	w := ws.Get()
	defer ws.Put(w)
	for _, n := range sizes {
		data := tsgen.Generate(entry, n, cfg.MaxLen, cfg.Seed)
		sim, dis := correlate(w, data.Series)
		var seq, par time.Duration
		withThreads(1, func() {
			seq = timeWarm(func() { mustTMFGDBHT(w, sim, dis, 10) })
		})
		par = timeWarm(func() { mustTMFGDBHT(w, sim, dis, 10) })
		observations = append(observations, obs{n: len(data.Series), seq: seq.Seconds(), par: par.Seconds()})
		tw.row(fmt.Sprint(len(data.Series)), fmtDur(seq), fmtDur(par))
	}
	tw.flush()
	// Least-squares exponent fit in log space.
	fit := func(get func(obs) float64) float64 {
		var sx, sy, sxx, sxy float64
		for _, o := range observations {
			x, y := math.Log(float64(o.n)), math.Log(get(o))
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
		}
		n := float64(len(observations))
		return (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
	fmt.Fprintf(&b, "\nfitted exponents: sequential n^%.2f, parallel n^%.2f\n", fit(func(o obs) float64 { return o.seq }), fit(func(o obs) float64 { return o.par }))
	b.WriteString("(paper: n^2.22 sequential, n^1.79 on 48 cores)\n")
	return b.String()
}
