package ws

// Grouping is a flat CSR-offset partition of int32 ids: group k occupies
// Data[Off[k]:Off[k+1]]. It replaces ragged [][]int32 results on the hot
// paths — two backing arrays regardless of group count, contiguous iteration,
// and full reuse across calls via a Workspace.
type Grouping struct {
	Data []int32
	Off  []int32
}

// Reset empties the grouping, keeping capacity.
func (g *Grouping) Reset() {
	g.Data = g.Data[:0]
	g.Off = append(g.Off[:0], 0)
}

// NumGroups returns the number of closed groups.
func (g *Grouping) NumGroups() int { return len(g.Off) - 1 }

// Group returns group k as a subslice view of Data (do not retain past the
// grouping's release).
func (g *Grouping) Group(k int) []int32 { return g.Data[g.Off[k]:g.Off[k+1]] }

// Append adds id v to the group currently being built.
func (g *Grouping) Append(v int32) { g.Data = append(g.Data, v) }

// EndGroup closes the group under construction; the next Append starts the
// following group.
func (g *Grouping) EndGroup() { g.Off = append(g.Off, int32(len(g.Data))) }

// StartFromCounts prepares the grouping for random-order two-pass CSR
// filling: Off is set from the exclusive prefix sum of counts (so group k
// will occupy Data[Off[k]:Off[k]+counts[k]]) and Data is sized to the total.
// It returns a cursor slice (aliased into cursorBuf if large enough) holding
// each group's next write position; fill with
//
//	cur := g.StartFromCounts(counts, buf)
//	data[cur[k]] = v; cur[k]++
//
// After filling, every cursor equals Off[k+1] and the grouping is complete.
func (g *Grouping) StartFromCounts(counts []int32, cursorBuf []int32) []int32 {
	k := len(counts)
	if cap(g.Off) < k+1 {
		g.Off = make([]int32, k+1)
	} else {
		g.Off = g.Off[:k+1]
	}
	g.Off[0] = 0
	for i, c := range counts {
		g.Off[i+1] = g.Off[i] + c
	}
	total := int(g.Off[k])
	if cap(g.Data) < total {
		g.Data = make([]int32, total)
	} else {
		g.Data = g.Data[:total]
	}
	var cur []int32
	if cap(cursorBuf) >= k {
		cur = cursorBuf[:k]
	} else {
		cur = make([]int32, k)
	}
	copy(cur, g.Off[:k])
	return cur
}
