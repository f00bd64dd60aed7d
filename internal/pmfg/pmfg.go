// Package pmfg implements the Planar Maximally Filtered Graph of Tumminello
// et al., the baseline that TMFG approximates. Edges are considered in
// decreasing weight order and added whenever planarity is preserved, checked
// with the left-right planarity test. The construction is inherently
// sequential and Θ(n²) planarity tests make it orders of magnitude slower
// than TMFG — the behavior the paper's Figures 1 and 3 report.
package pmfg

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/matrix"
	"pfg/internal/planarity"
)

// Result is the output of PMFG construction.
type Result struct {
	// Graph is the PMFG with similarity weights (3n-6 edges for n ≥ 3).
	Graph *graph.Graph
	// Edges lists the accepted edges in insertion order.
	Edges [][2]int32
	// Tested counts how many candidate edges ran a planarity test.
	Tested int
}

// BuildCtx constructs the PMFG of the similarity matrix s, honouring
// cancellation between planarity tests (each test is the expensive unit of
// work here). The construction is sequential: pool is taken only because
// every stage's entry point takes one, and is not used.
func BuildCtx(ctx context.Context, pool *exec.Pool, s *matrix.Sym) (*Result, error) {
	n := s.N
	if n < 3 {
		return nil, fmt.Errorf("pmfg: need at least 3 vertices, have %d", n)
	}
	type cand struct {
		w    float64
		u, v int32
	}
	cands := make([]cand, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cands = append(cands, cand{w: s.At(i, j), u: int32(i), v: int32(j)})
		}
	}
	// Highest weight first; deterministic tie-break on vertex ids.
	slices.SortFunc(cands, func(a, b cand) int {
		if c := cmp.Compare(b.w, a.w); c != 0 {
			return c
		}
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	target := 3*n - 6
	res := &Result{}
	accepted := make([][2]int32, 0, target)
	for _, c := range cands {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(accepted) == target {
			break
		}
		trial := append(accepted, [2]int32{c.u, c.v})
		res.Tested++
		if planarity.Planar(n, trial) {
			accepted = trial
		}
	}
	if len(accepted) != target {
		return nil, fmt.Errorf("pmfg: only %d of %d edges accepted", len(accepted), target)
	}
	res.Edges = accepted
	edges := make([]graph.Edge, len(accepted))
	for i, e := range accepted {
		edges[i] = graph.Edge{U: e[0], V: e[1], W: s.At(int(e[0]), int(e[1]))}
	}
	g, err := graph.FromEdgesWS(nil, n, edges)
	if err != nil {
		return nil, fmt.Errorf("pmfg: internal error: %w", err)
	}
	res.Graph = g
	return res, nil
}

// EdgeWeightSum returns the total similarity weight captured by the PMFG.
func (r *Result) EdgeWeightSum(s *matrix.Sym) float64 {
	return matrix.EdgeWeightSum(s, r.Edges)
}
