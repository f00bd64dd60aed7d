package kernel

import "math"

// Heap4 is an implicit 4-ary min-heap over (vertex, distance) pairs with
// decrease-key, the priority queue under Dijkstra. Compared to a binary
// heap it halves the tree depth, so a sift touches half as many levels, and
// the four children of a node share one or two cache lines, so each level
// costs a single line fill instead of two scattered probes.
//
// Storage is caller-provided (the graph layer draws it from a ws.Workspace):
// verts is the heap order, dist[v] the current tentative distance keyed by
// vertex id, pos[v] the index of v in verts (-1 when absent). The zero
// Heap4 is not usable; call Init first.
type Heap4 struct {
	verts []int32
	dist  []float64
	pos   []int32
}

// Init attaches storage sized for n vertices (len(verts) ≥ n, len(dist) ≥ n,
// len(pos) ≥ n) and starts the heap empty, with every distance +Inf.
func (h *Heap4) Init(verts []int32, dist []float64, pos []int32) {
	h.verts = verts[:0]
	h.dist = dist
	h.pos = pos
	inf := math.Inf(1)
	for i := range h.pos {
		h.pos[i] = -1
	}
	for i := range h.dist {
		h.dist[i] = inf
	}
}

// Len returns the number of queued vertices.
func (h *Heap4) Len() int { return len(h.verts) }

// DistOf returns the current tentative distance of v (+Inf if never
// decreased). After the heap drains, this is the final distance.
func (h *Heap4) DistOf(v int32) float64 { return h.dist[v] }

// Dists returns the backing distance array (indexed by vertex id), for bulk
// copies after a run.
func (h *Heap4) Dists() []float64 { return h.dist }

// Storage returns the backing arrays passed to Init, for release back to
// their owner.
func (h *Heap4) Storage() (verts []int32, dist []float64, pos []int32) {
	return h.verts[:cap(h.verts)], h.dist, h.pos
}

// DecreaseKey inserts v with distance d, or lowers its key if already
// present with a larger distance. Calls with d ≥ dist[v] are no-ops, so
// relax loops need no pre-check.
func (h *Heap4) DecreaseKey(v int32, d float64) {
	if d >= h.dist[v] {
		return
	}
	h.dist[v] = d
	i := h.pos[v]
	if i < 0 {
		i = int32(len(h.verts))
		h.verts = append(h.verts, v)
	}
	// Sift up: shift parents down until d's slot is found, then place v once
	// (half the writes of swap-based sifting).
	for i > 0 {
		p := (i - 1) >> 2
		pv := h.verts[p]
		if h.dist[pv] <= d {
			break
		}
		h.verts[i] = pv
		h.pos[pv] = i
		i = p
	}
	h.verts[i] = v
	h.pos[v] = i
}

// PopMin removes and returns the vertex with the smallest distance. The heap
// must be non-empty.
func (h *Heap4) PopMin() int32 {
	verts := h.verts
	top := verts[0]
	h.pos[top] = -1
	last := len(verts) - 1
	v := verts[last]
	h.verts = verts[:last]
	if last == 0 {
		return top
	}
	verts = verts[:last]
	dist := h.dist
	d := dist[v]
	// Sift v down from the root: pick the smallest of up to four children
	// per level.
	i := int32(0)
	for {
		c := 4*i + 1
		if int(c) >= last {
			break
		}
		end := c + 4
		if end > int32(last) {
			end = int32(last)
		}
		mc := c
		mv := verts[c]
		md := dist[mv]
		for k := c + 1; k < end; k++ {
			kv := verts[k]
			if kd := dist[kv]; kd < md {
				mc, mv, md = k, kv, kd
			}
		}
		if md >= d {
			break
		}
		verts[i] = mv
		h.pos[mv] = i
		i = mc
	}
	verts[i] = v
	h.pos[v] = i
	return top
}
