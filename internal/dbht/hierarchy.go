package dbht

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/hac"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// The three levels of the hierarchy (Lines 28, 30 and 31 of Algorithm 4):
// complete linkage within each (group, bubble) subgroup, across the
// subgroups of each group, and across the groups. A level's runs are the
// maximal stretches of its nodes that share the level's key.
const (
	bySubgroup = iota
	byGroup
	byAll
)

// hierarchy is the state of one buildHierarchy call. Node i of the current
// level covers the vertices ord[lo[i]:lo[i+1]] and is dendrogram node id[i];
// run r of the level is the nodes runs[r]:runs[r+1].
type hierarchy struct {
	ctx           context.Context
	pool          *exec.Pool
	w             *ws.Workspace
	apsp          *graph.APSP
	group, bubble []int32
	ord           []int32 // vertices sorted by (group, bubble, id)
	lo, id, runs  []int32
	merges        []dendro.Merge // appended so far; a level's runs write past the end
	mu            sync.Mutex
	err           error // a linkage run's error
}

// buildHierarchy implements Lines 24–33 of Algorithm 4 plus the height
// scheme of the Aste reference implementation. One routine, level, runs at
// three levels: complete linkage over shortest-path distances inside every
// (group, bubble) subgroup, then across the subgroups of every group, then
// across the groups. A level's linkage runs go in parallel on the pool, and
// their merges are appended in run order. Every run returns its merges by
// non-decreasing height, so append order ranks a group's merges as the
// reference does, and heights are set as the merges are appended: a group
// of nb vertices gives the merges of its first two levels 1/(nb−1), …, 1/2,
// 1, and a top-level merge gets the number of groups under it.
//
// The levels' nodes, runs and distance matrices live in w, and the runs
// write their merges straight into the dendrogram's merge array, so the
// call allocates O(1) times regardless of the bubble count.
func buildHierarchy(ctx context.Context, pool *exec.Pool, w *ws.Workspace, n int, group, bubble []int32, apsp *graph.APSP) (*dendro.Dendrogram, error) {
	h := &hierarchy{
		ctx: ctx, pool: pool, w: w, apsp: apsp, group: group, bubble: bubble,
		ord: w.Int32(n), lo: w.Int32(n + 1), id: w.Int32(n), runs: w.Int32(n + 1),
		merges: make([]dendro.Merge, 0, n-1),
	}
	defer w.PutInt32(h.ord)
	defer w.PutInt32(h.lo)
	defer w.PutInt32(h.id)
	defer w.PutInt32(h.runs)
	for i := range h.ord {
		h.ord[i] = int32(i)
	}
	slices.SortFunc(h.ord, func(a, b int32) int {
		if c := cmp.Compare(group[a], group[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(bubble[a], bubble[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// The first level's nodes are the vertices.
	for i, v := range h.ord {
		h.lo[i], h.id[i] = int32(i), v
	}
	h.lo[n] = int32(n)
	link := h.link // bound once: every level's parallel loop runs it
	for key := bySubgroup; key <= byAll; key++ {
		if err := h.level(key, link); err != nil {
			return nil, err
		}
	}
	dnd := &dendro.Dendrogram{N: n, Merges: h.merges}
	if err := dnd.Validate(1e-9); err != nil {
		return nil, fmt.Errorf("dbht: invalid dendrogram: %w", err)
	}
	return dnd, nil
}

// level runs complete linkage over every run of the current nodes that
// share key, all runs in parallel. Then, in run order, it appends each run's
// merges with their heights and collapses the run into one node of the next
// level. Run r's node goes to slot r ≤ runs[r], which no later run reads.
func (h *hierarchy) level(key int, link func(int)) error {
	m := len(h.id)
	h.runs = h.runs[:0]
	for i := 0; i < m; i++ {
		if i == 0 || !h.same(key, i-1, i) {
			h.runs = append(h.runs, int32(i))
		}
	}
	nr := len(h.runs)
	h.runs = append(h.runs, int32(m))
	if err := h.pool.ForGrain(h.ctx, nr, 1, link); err != nil {
		return err
	}
	if h.err != nil {
		return h.err
	}
	n, base := int32(len(h.ord)), len(h.merges)
	h.merges = h.merges[:base+m-nr]
	live := 0 // nodes of the current group at this level not yet merged
	for r := 0; r < nr; r++ {
		a, k := int(h.runs[r]), int(h.runs[r+1]-h.runs[r])
		if v := h.lo[a]; key != byAll && (v == 0 || h.group[h.ord[v-1]] != h.group[h.ord[v]]) {
			// The run opens a group: count the group's nodes.
			live = 0
			for x := a; x < m && h.same(byGroup, a, x); x++ {
				live++
			}
		}
		first := n + int32(base+a-r) // dendrogram id of the run's first merge
		root := h.id[a]
		for i := 0; i < k-1; i++ {
			mg := &h.merges[base+a-r+i]
			mg.A, mg.B = h.node(mg.A, a, k, first), h.node(mg.B, a, k, first)
			if key == byAll {
				mg.Height = h.groupsUnder(mg.A, first) + h.groupsUnder(mg.B, first)
			} else {
				mg.Height = 1 / float64(live-1)
				live--
			}
			root = first + int32(i)
		}
		h.lo[r], h.id[r] = h.lo[a], root
	}
	h.lo[nr] = n
	h.lo, h.id = h.lo[:nr+1], h.id[:nr]
	return nil
}

// link runs complete linkage over run r's nodes, writing the run's k−1
// merges (over local node ids) where level appends them.
func (h *hierarchy) link(r int) {
	a, k := int(h.runs[r]), int(h.runs[r+1]-h.runs[r])
	if k == 1 {
		return
	}
	d := h.w.Float64(k * k)
	for x := 0; x < k; x++ {
		row := d[x*k : (x+1)*k]
		for y := range row {
			row[y] = 0
			if y != x {
				row[y] = h.dist(a+x, a+y)
			}
		}
	}
	at := len(h.merges) + a - r
	if _, err := hac.RunMatrixIntoWS(h.ctx, h.pool, h.w, k, d, hac.Complete, h.merges[at:at:at+k-1]); err != nil {
		h.mu.Lock()
		h.err = err
		h.mu.Unlock()
	}
	h.w.PutFloat64(d)
}

// dist is the complete-linkage distance from node x to node y: the largest
// shortest-path distance from a vertex of x to a vertex of y.
func (h *hierarchy) dist(x, y int) float64 {
	xs, ys := h.ord[h.lo[x]:h.lo[x+1]], h.ord[h.lo[y]:h.lo[y+1]]
	if len(xs) == 1 && len(ys) == 1 {
		return h.apsp.At(xs[0], ys[0])
	}
	best := math.Inf(-1)
	for _, u := range xs {
		if m := kernel.MaxGather(h.apsp.Dist[int(u)*h.apsp.N:(int(u)+1)*h.apsp.N], ys); m > best {
			best = m
		}
	}
	return best
}

// same reports whether nodes x and y share key. Below the top level a node
// lies inside one subgroup or one group, so its first vertex decides.
func (h *hierarchy) same(key, x, y int) bool {
	u, v := h.ord[h.lo[x]], h.ord[h.lo[y]]
	return key == byAll || h.group[u] == h.group[v] && (key == byGroup || h.bubble[u] == h.bubble[v])
}

// node maps local node l of the run of k nodes starting at node a, whose
// first merge is dendrogram node first, to its dendrogram id.
func (h *hierarchy) node(l int32, a, k int, first int32) int32 {
	if int(l) < k {
		return h.id[a+int(l)]
	}
	return first + l - int32(k)
}

// groupsUnder is the number of groups under node c of the top level: a
// group root counts one, and a top-level merge (id ≥ first) already holds
// its count as its height.
func (h *hierarchy) groupsUnder(c, first int32) float64 {
	if c >= first {
		return h.merges[int(c)-len(h.ord)].Height
	}
	return 1
}
