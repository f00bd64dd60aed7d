// Stocks: the paper's Figure 10 scenario on a synthetic market. Generates a
// factor-model stock panel with 11 sectors, clusters the detrended returns
// with spectral embedding + TMFG+DBHT (prefix 30), and prints the
// cluster-versus-sector contingency and ARI, comparing against the exact
// TMFG (prefix 1) as the paper does (0.36 vs 0.28 on real data).
//
//	go run ./examples/stocks
package main

import (
	"context"
	"fmt"
	"log"

	"pfg"
	"pfg/internal/exec"
	"pfg/internal/spectral"
	"pfg/internal/tsgen"
)

func main() {
	const (
		nStocks = 400
		days    = 500
		seed    = 3
	)
	sd := tsgen.GenerateStocks(nStocks, days, seed)
	k := len(tsgen.SectorNames)

	cluster := func(prefix int) []int {
		// Spectral embedding of the detrended log-returns (the paper's
		// preprocessing), then correlation of the embedding, then TMFG+DBHT.
		emb, err := spectral.EmbedCtx(context.Background(), exec.Default(), sd.Returns, spectral.Options{
			Neighbors:  nStocks / 10,
			Components: k,
			Seed:       seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := pfg.Cluster(emb, pfg.Options{Prefix: prefix})
		if err != nil {
			log.Fatal(err)
		}
		labels, err := res.Cut(k)
		if err != nil {
			log.Fatal(err)
		}
		return labels
	}

	labels := cluster(30)
	fmt.Printf("cluster × sector contingency (%d stocks, %d sectors):\n\n", nStocks, k)
	fmt.Printf("%8s", "")
	for s := range tsgen.SectorNames {
		fmt.Printf(" S%-3d", s)
	}
	fmt.Println()
	counts := make([][]int, k)
	for c := range counts {
		counts[c] = make([]int, k)
	}
	for i, l := range labels {
		counts[l][sd.Sector[i]]++
	}
	for c := 0; c < k; c++ {
		fmt.Printf("cluster%d", c)
		for s := 0; s < k; s++ {
			fmt.Printf(" %-4d", counts[c][s])
		}
		fmt.Println()
	}
	fmt.Println()
	for s, name := range tsgen.SectorNames {
		fmt.Printf("  S%-2d = %s\n", s, name)
	}

	ari30, _ := pfg.ARI(sd.Sector, labels)
	ari1, _ := pfg.ARI(sd.Sector, cluster(1))
	fmt.Printf("\nARI vs sectors: prefix=30 → %.3f, exact TMFG → %.3f\n", ari30, ari1)
	fmt.Println("(paper: 0.36 vs 0.28 on 1614 US stocks, 2013-2019)")
}
