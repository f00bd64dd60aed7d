// Command pfg-experiments regenerates the tables and figures of the paper's
// evaluation section on synthetic workloads. Each figure is a subcommand;
// "all" runs everything.
//
// Usage:
//
//	pfg-experiments [-quick] [-maxn N] [-seed S] <experiment>...
//	pfg-experiments all
//
// Experiments: table2 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 fig10 fig11
// scaling appendix extras ablation-apsp ablation-cophenetic motivation
// ablation-footnote.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"pfg/internal/experiments"
)

var registry = []struct {
	name string
	fn   func(experiments.Config) string
}{
	{"table2", experiments.Table2},
	{"fig1", experiments.Fig1},
	{"fig3", experiments.Fig3},
	{"fig4", experiments.Fig4},
	{"fig5", experiments.Fig5},
	{"fig6", experiments.Fig6},
	{"fig7", experiments.Fig7},
	{"fig8", experiments.Fig8},
	{"fig9", experiments.Fig9},
	{"fig10", experiments.Fig10},
	{"fig11", experiments.Fig11},
	{"scaling", experiments.Scaling},
	{"appendix", experiments.Appendix},
	{"extras", experiments.Extras},
	{"ablation-apsp", experiments.AblationAPSP},
	{"ablation-cophenetic", experiments.AblationCophenetic},
	{"motivation", experiments.Motivation},
	{"ablation-footnote", experiments.AblationFootnote},
}

func main() {
	quick := flag.Bool("quick", false, "run a fast subset (small data, fewer prefixes)")
	maxN := flag.Int("maxn", 0, "override the per-dataset object cap")
	scaleN := flag.Int("scalen", 0, "override the scaling-experiment object count")
	seed := flag.Int64("seed", 0, "override the generator seed")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: pfg-experiments [flags] <experiment>...\n\nexperiments:\n")
		names := make([]string, 0, len(registry)+1)
		for _, r := range registry {
			names = append(names, r.name)
		}
		names = append(names, "all")
		fmt.Fprintf(os.Stderr, "  %s\n\nflags:\n", strings.Join(names, " "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg := experiments.DefaultConfig()
	if *quick {
		cfg = experiments.QuickConfig()
	}
	if *maxN > 0 {
		cfg.MaxN = *maxN
	}
	if *scaleN > 0 {
		cfg.ScaleN = *scaleN
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	fmt.Printf("pfg-experiments: %d CPUs, quick=%v, maxn=%d, scalen=%d, seed=%d\n\n",
		runtime.NumCPU(), cfg.Quick, cfg.MaxN, cfg.ScaleN, cfg.Seed)
	want := map[string]bool{}
	for _, a := range flag.Args() {
		want[a] = true
	}
	ran := 0
	for _, r := range registry {
		if !want["all"] && !want[r.name] {
			continue
		}
		start := time.Now()
		fmt.Printf("=== %s ===\n", r.name)
		fmt.Println(r.fn(cfg))
		fmt.Printf("(%s took %.1fs)\n\n", r.name, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "pfg-experiments: no matching experiments for %v\n", flag.Args())
		os.Exit(2)
	}
}
