package dbht

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"pfg/internal/dendro"
	"pfg/internal/exec"
	"pfg/internal/graph"
	"pfg/internal/hac"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// mergeKind labels where a dendrogram merge was created (Lines 28, 30, 31
// of Algorithm 4), which determines its height assignment.
type mergeKind uint8

const (
	intraBubble mergeKind = iota // Line 28: within a subgroup
	interBubble                  // Line 30: across bubbles within a group
	interGroup                   // Line 31: across groups
)

// mergeMeta carries the bookkeeping used for height assignment.
type mergeMeta struct {
	kind   mergeKind
	group  int32   // owning group (converging bubble id); -1 for interGroup
	bubble int32   // owning bubble for intraBubble merges; -1 otherwise
	dist   float64 // linkage distance at merge time
}

// sgJob is one per-subgroup linkage run (Line 25–28); grpJob is one
// per-group run across its subgroups (Line 29–30). Each job owns a disjoint
// segment of one flat merge backing array, so the parallel linkage runs
// write their dendrogram fragments without allocating (hac.RunMatrixIntoWS).
type sgJob struct {
	g, b   int32
	verts  []int32
	merges []dendro.Merge // filled segment of the shared backing
	err    error
}

type grpJob struct {
	g      int32
	verts  []int32   // all vertices of the group (a run of ord)
	sets   [][]int32 // subgroup vertex runs (a run of the shared sets slice)
	roots  []int32   // global node id per subgroup (a run of subgroupRoot)
	merges []dendro.Merge
	err    error
}

// buildHierarchy implements Lines 24–33 of Algorithm 4 plus the height
// scheme of the Aste reference implementation. Vertices are partitioned
// into (group, bubble) subgroups by one flat sort — the boundaries of the
// sorted order are the subgroups, so no map-keyed accumulation is needed —
// and the per-subgroup and per-group linkage runs nest on the same pool.
//
// Scratch discipline: the many tiny linkage runs share one flat merge
// backing array (the three tiers sum to exactly n−1 merges) and fill their
// distance matrices inline from workspace memory, so a snapshot's hierarchy
// construction performs O(1) allocations regardless of the bubble count.
func buildHierarchy(ctx context.Context, pool *exec.Pool, w *ws.Workspace, n int, group, bubble []int32, groups []int32, apsp *graph.APSP) (*dendro.Dendrogram, error) {
	// ord holds all vertices sorted by (group, bubble, id); every subgroup
	// and every group is a contiguous run.
	ord := w.Int32(n)
	defer w.PutInt32(ord)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int {
		if c := cmp.Compare(group[a], group[b]); c != 0 {
			return c
		}
		if c := cmp.Compare(bubble[a], bubble[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	setDist := func(a, b []int32) float64 {
		// Complete linkage between vertex sets: for each row the inner max
		// is the unrolled gather kernel (max is order-insensitive, so the
		// result is unchanged).
		best := math.Inf(-1)
		for _, u := range a {
			row := apsp.Dist[int(u)*apsp.N : (int(u)+1)*apsp.N]
			if m := kernel.MaxGather(row, b); m > best {
				best = m
			}
		}
		return best
	}

	// Count the (group, bubble) runs and the group runs up front so every
	// slice below is allocated exactly once at its final size.
	nSub, nGroups := 0, 0
	for lo := 0; lo < n; {
		hi := lo + 1
		v := ord[lo]
		newGroup := lo == 0 || group[ord[lo-1]] != group[v]
		for hi < n && group[ord[hi]] == group[v] && bubble[ord[hi]] == bubble[v] {
			hi++
		}
		nSub++
		if newGroup {
			nGroups++
		}
		lo = hi
	}

	// The flat merge backing: subgroup runs emit n−nSub merges, group runs
	// nSub−nGroups, the top run nGroups−1 — exactly n−1 in total. Each run
	// gets a capacity-bounded (three-index) segment.
	backing := make([]dendro.Merge, n-1)
	backAt := 0
	segment := func(need int) []dendro.Merge {
		s := backing[backAt : backAt : backAt+need]
		backAt += need
		return s
	}

	// Line 25–28: complete linkage within every subgroup, in parallel.
	// Subgroups are the (group, bubble) runs of ord, in ascending order.
	jobs := make([]sgJob, 0, nSub)
	for lo := 0; lo < n; {
		hi := lo + 1
		v := ord[lo]
		for hi < n && group[ord[hi]] == group[v] && bubble[ord[hi]] == bubble[v] {
			hi++
		}
		jobs = append(jobs, sgJob{g: group[v], b: bubble[v], verts: ord[lo:hi], merges: segment(hi - lo - 1)})
		lo = hi
	}
	err := pool.ForGrain(ctx, len(jobs), 1, func(i int) {
		j := &jobs[i]
		k := len(j.verts)
		if k == 1 {
			return
		}
		d := w.Float64(k * k)
		for a := 0; a < k; a++ {
			row := d[a*k : (a+1)*k]
			arow := apsp.Dist[int(j.verts[a])*apsp.N : (int(j.verts[a])+1)*apsp.N]
			for b := 0; b < k; b++ {
				row[b] = arow[j.verts[b]]
			}
			row[a] = 0
		}
		j.merges, j.err = hac.RunMatrixIntoWS(ctx, pool, w, k, d, hac.Complete, j.merges)
		w.PutFloat64(d)
	})
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		if jobs[i].err != nil {
			return nil, jobs[i].err
		}
	}
	// Stitch subgroup dendrograms deterministically; jobs are already in
	// (group, bubble) order.
	gb := &globalBuilder{
		n:      n,
		w:      w,
		merges: make([]dendro.Merge, 0, n-1),
		meta:   make([]mergeMeta, 0, n-1),
	}
	subgroupRoot := w.Int32(nSub)
	defer w.PutInt32(subgroupRoot)
	for i := range jobs {
		j := &jobs[i]
		subgroupRoot[i] = gb.appendLocal(j.merges, j.verts, mergeMeta{kind: intraBubble, group: j.g, bubble: j.b})
	}

	// Line 29–30: complete linkage across subgroups within each group. The
	// per-group subgroup sets and roots are runs of shared flat slices.
	setsAll := make([][]int32, nSub)
	for i := range jobs {
		setsAll[i] = jobs[i].verts
	}
	gjobs := make([]grpJob, 0, nGroups)
	for lo := 0; lo < len(jobs); {
		hi := lo + 1
		for hi < len(jobs) && jobs[hi].g == jobs[lo].g {
			hi++
		}
		gjobs = append(gjobs, grpJob{
			g:      jobs[lo].g,
			sets:   setsAll[lo:hi],
			roots:  subgroupRoot[lo:hi],
			merges: segment(hi - lo - 1),
		})
		lo = hi
	}
	// Group vertex runs are contiguous in ord: each group's run is the
	// concatenation of its subgroup runs.
	at := 0
	for i := range gjobs {
		j := &gjobs[i]
		size := 0
		for _, s := range j.sets {
			size += len(s)
		}
		j.verts = ord[at : at+size]
		at += size
	}
	err = pool.ForGrain(ctx, len(gjobs), 1, func(i int) {
		j := &gjobs[i]
		k := len(j.sets)
		if k == 1 {
			return
		}
		d := w.Float64(k * k)
		for a := 0; a < k; a++ {
			row := d[a*k : (a+1)*k]
			for b := 0; b < k; b++ {
				if a != b {
					row[b] = setDist(j.sets[a], j.sets[b])
				} else {
					row[b] = 0
				}
			}
		}
		j.merges, j.err = hac.RunMatrixIntoWS(ctx, pool, w, k, d, hac.Complete, j.merges)
		w.PutFloat64(d)
	})
	if err != nil {
		return nil, err
	}
	for i := range gjobs {
		if gjobs[i].err != nil {
			return nil, gjobs[i].err
		}
	}
	groupRoot := w.Int32(nGroups)
	defer w.PutInt32(groupRoot)
	for i := range gjobs {
		j := &gjobs[i]
		groupRoot[i] = gb.appendLocal(j.merges, j.roots, mergeMeta{kind: interBubble, group: j.g, bubble: -1})
	}

	// Line 31: complete linkage across groups. gjobs are in ascending group
	// order, matching groups.
	if len(gjobs) != len(groups) {
		return nil, fmt.Errorf("dbht: %d group runs for %d groups", len(gjobs), len(groups))
	}
	topMerges := segment(nGroups - 1)
	if nGroups > 1 {
		k := nGroups
		d := w.Float64(k * k)
		for a := 0; a < k; a++ {
			row := d[a*k : (a+1)*k]
			for b := 0; b < k; b++ {
				if a != b {
					row[b] = setDist(gjobs[a].verts, gjobs[b].verts)
				} else {
					row[b] = 0
				}
			}
		}
		topMerges, err = hac.RunMatrixIntoWS(ctx, pool, w, k, d, hac.Complete, topMerges)
		w.PutFloat64(d)
		if err != nil {
			return nil, err
		}
	}
	gb.appendLocal(topMerges, groupRoot, mergeMeta{kind: interGroup, group: -1, bubble: -1})

	groupSize := w.Int32(nGroups)
	defer w.PutInt32(groupSize)
	for i := range gjobs {
		groupSize[i] = int32(len(gjobs[i].verts))
	}
	if err := gb.assignHeights(groups, groupSize); err != nil {
		return nil, err
	}
	dnd := &dendro.Dendrogram{N: n, Merges: gb.merges}
	if err := dnd.Validate(1e-9); err != nil {
		return nil, fmt.Errorf("dbht: invalid dendrogram: %w", err)
	}
	return dnd, nil
}

// globalBuilder accumulates the final dendrogram's merges.
type globalBuilder struct {
	n      int
	w      *ws.Workspace
	merges []dendro.Merge
	meta   []mergeMeta
}

// appendLocal translates a local dendrogram fragment (merges over a leaf set
// items of global node ids) into global merges and returns the global id of
// the fragment's root. For single-item fragments no merge is created.
func (gb *globalBuilder) appendLocal(merges []dendro.Merge, items []int32, meta mergeMeta) int32 {
	if len(items) == 1 {
		return items[0]
	}
	localN := len(items)
	localToGlobal := gb.w.Int32(localN + len(merges))
	copy(localToGlobal, items)
	for i, m := range merges {
		self := int32(gb.n + len(gb.merges))
		a := localToGlobal[m.A]
		b := localToGlobal[m.B]
		gb.merges = append(gb.merges, dendro.Merge{A: a, B: b, Height: m.Height})
		md := meta
		md.dist = m.Height
		gb.meta = append(gb.meta, md)
		localToGlobal[localN+i] = self
	}
	root := localToGlobal[localN+len(merges)-1]
	gb.w.PutInt32(localToGlobal)
	return root
}

// assignHeights replaces raw linkage distances with the reference height
// scheme: inter-group nodes get the number of converging-bubble groups in
// their descendants; within each group, the nb−1 nodes get ascending heights
// [1/(nb−1), …, 1/2, 1], ordered intra-bubble first (by bubble id, then
// merge distance) and inter-bubble after (by merge distance). groupSize[i]
// is the vertex count of groups[i].
func (gb *globalBuilder) assignHeights(groups []int32, groupSize []int32) error {
	// Per group: collect merge indices. Group ids are sparse bubble ids, so
	// map them to positions first, then partition the merge indices with a
	// count-and-fill pass.
	gpos := make(map[int32]int, len(groups))
	for i, gid := range groups {
		gpos[gid] = i
	}
	perGroup := gb.w.Grouping()
	defer gb.w.PutGrouping(perGroup)
	counts := gb.w.Int32(len(groups))
	clear(counts)
	for _, md := range gb.meta {
		if md.kind != interGroup {
			counts[gpos[md.group]]++
		}
	}
	cur := perGroup.StartFromCounts(counts, counts)
	for i, md := range gb.meta {
		if md.kind != interGroup {
			p := gpos[md.group]
			perGroup.Data[cur[p]] = int32(i)
			cur[p]++
		}
	}
	gb.w.PutInt32(counts)
	for p := range groups {
		idx := perGroup.Group(p)
		nb := int(groupSize[p])
		if len(idx) != nb-1 {
			return fmt.Errorf("dbht: group %d has %d merges for %d vertices", groups[p], len(idx), nb)
		}
		if nb == 1 {
			continue
		}
		slices.SortStableFunc(idx, func(a, b int32) int {
			ma, mb := gb.meta[a], gb.meta[b]
			// Intra-bubble nodes first.
			if (ma.kind == intraBubble) != (mb.kind == intraBubble) {
				if ma.kind == intraBubble {
					return -1
				}
				return 1
			}
			if ma.kind == intraBubble && ma.bubble != mb.bubble {
				if ma.bubble < mb.bubble {
					return -1
				}
				return 1
			}
			if ma.dist < mb.dist {
				return -1
			}
			if ma.dist > mb.dist {
				return 1
			}
			return 0
		})
		for rank, mi := range idx {
			// Heights 1/(nb-1), 1/(nb-2), ..., 1/2, 1.
			gb.merges[mi].Height = 1 / float64(nb-1-rank)
		}
	}
	// Inter-group heights: number of groups in the node's descendants.
	// Children of inter-group merges are either group roots (count 1) or
	// earlier inter-group nodes, so a flat per-merge count array suffices.
	groupCount := gb.w.Int32(len(gb.merges))
	defer gb.w.PutInt32(groupCount)
	for i, md := range gb.meta {
		if md.kind != interGroup {
			continue
		}
		m := &gb.merges[i]
		count := int32(0)
		for _, c := range []int32{m.A, m.B} {
			if ci := int(c) - gb.n; ci >= 0 && gb.meta[ci].kind == interGroup {
				count += groupCount[ci]
			} else {
				count++ // a group root (or a leaf/vertex-level node of a whole group)
			}
		}
		groupCount[i] = count
		m.Height = float64(count)
	}
	return nil
}
