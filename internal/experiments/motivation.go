package experiments

import (
	"context"
	"fmt"
	"strings"

	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/tmfg"
	"pfg/internal/ws"
)

// Motivation quantifies the introduction's argument for topological
// filtering: keeping the global top-3n−6 edges by weight (a pure threshold
// filter with the same budget as the TMFG) produces a graph that is badly
// fragmented — the strongest correlations concentrate inside a few tight
// groups — while the TMFG is connected and planar by construction, so every
// object stays reachable for the downstream hierarchy.
func Motivation(cfg Config) string {
	var b strings.Builder
	b.WriteString("Motivation: same edge budget, threshold filter vs TMFG\n")
	tw := newTable(&b, "ID", "n", "edges", "thr components", "thr isolated", "thr largest", "tmfg components")
	w := ws.Get()
	defer ws.Put(w)
	for _, d := range sortedIDs(Datasets(cfg)) {
		sim, _ := correlate(w, d.Data.Series)
		n := sim.N
		budget := 3*n - 6
		// Top-budget edges by similarity.
		type cand struct {
			w    float64
			u, v int32
		}
		cands := make([]cand, 0, n*(n-1)/2)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				cands = append(cands, cand{w: sim.At(i, j), u: int32(i), v: int32(j)})
			}
		}
		err := exec.Sort(context.Background(), exec.Default(), cands, func(a, c cand) bool {
			if a.w != c.w {
				return a.w > c.w
			}
			if a.u != c.u {
				return a.u < c.u
			}
			return a.v < c.v
		})
		if err != nil {
			panic(err)
		}
		edges := make([]graph.Edge, 0, budget)
		for _, c := range cands[:budget] {
			edges = append(edges, graph.Edge{U: c.u, V: c.v, W: c.w})
		}
		tg, err := graph.FromEdgesWS(w, n, edges)
		if err != nil {
			panic(err)
		}
		comps := tg.ComponentsWithout(nil)
		isolated, largest := 0, 0
		for _, c := range comps {
			if len(c) > largest {
				largest = len(c)
			}
			if len(c) == 1 {
				isolated++
			}
		}
		tm, err := tmfg.BuildWS(context.Background(), exec.Default(), w, sim, 10)
		if err != nil {
			panic(err)
		}
		tmfgComps := len(tm.Graph.ComponentsWithout(nil))
		tw.row(fmt.Sprint(d.Entry.ID), fmt.Sprint(n), fmt.Sprint(budget),
			fmt.Sprint(len(comps)), fmt.Sprint(isolated),
			fmt.Sprintf("%.0f%%", 100*float64(largest)/float64(n)),
			fmt.Sprint(tmfgComps))
	}
	tw.flush()
	b.WriteString("\nShape check: the threshold graph shatters into many components with\nisolated vertices; the TMFG is always a single connected component.\n")
	return b.String()
}
