package dendro

import (
	"fmt"
	"strconv"
	"strings"
)

// Newick serializes the dendrogram in Newick tree format, the standard
// interchange format for hierarchical clusterings (readable by R, ete3,
// scipy, FigTree, ...). Leaf names come from names, or "L<i>" when names is
// nil. Branch lengths are parent height minus child height, clamped at 0, so
// path lengths reproduce the merge heights; each is written as fmt's %g
// writes it (the shortest representation that round-trips).
//
// The tree is written in one pass into a single buffer, so the cost is
// linear in the output, whatever the tree's depth.
func (d *Dendrogram) Newick(names []string) (string, error) {
	if names != nil && len(names) != d.N {
		return "", fmt.Errorf("dendro: %d names for %d leaves", len(names), d.N)
	}
	w := newickWriter{d: d, names: names}
	// A leaf "L123:0.012345678901234" plus its share of "(,):<length>" is
	// about 48 bytes, enough that most trees never regrow the buffer.
	size := 48 * d.N
	for _, s := range names {
		size += len(s)
	}
	b := make([]byte, 0, size)
	if d.N == 1 {
		b = w.name(b, 0)
	} else {
		m := d.Merges[d.Root()-int32(d.N)]
		b = w.children(b, m)
	}
	return string(append(b, ';')), nil
}

// newickWriter appends the Newick text of a dendrogram's subtrees.
type newickWriter struct {
	d     *Dendrogram
	names []string
}

// children appends "(<A>,<B>)" for merge m.
func (w *newickWriter) children(b []byte, m Merge) []byte {
	b = append(b, '(')
	b = w.node(b, m.A, m.Height)
	b = append(b, ',')
	b = w.node(b, m.B, m.Height)
	return append(b, ')')
}

// node appends the subtree rooted at node followed by its branch length
// below a parent at parentHeight.
func (w *newickWriter) node(b []byte, node int32, parentHeight float64) []byte {
	n := int32(w.d.N)
	length := parentHeight
	if node < n {
		b = w.name(b, node)
	} else {
		m := w.d.Merges[node-n]
		b = w.children(b, m)
		length -= m.Height
	}
	if length < 0 {
		length = 0
	}
	b = append(b, ':')
	return strconv.AppendFloat(b, length, 'g', -1, 64)
}

// name appends leaf i's name: names[i] quoted when it contains Newick
// metacharacters, or "L<i>".
func (w *newickWriter) name(b []byte, i int32) []byte {
	if w.names == nil {
		b = append(b, 'L')
		return strconv.AppendInt(b, int64(i), 10)
	}
	s := w.names[i]
	if !strings.ContainsAny(s, "(),:;'\" \t\n[]") {
		return append(b, s...)
	}
	// Quote, doubling embedded quotes (a byte loop is exact: no UTF-8
	// sequence contains the byte '\'').
	b = append(b, '\'')
	for k := 0; k < len(s); k++ {
		if s[k] == '\'' {
			b = append(b, '\'')
		}
		b = append(b, s[k])
	}
	return append(b, '\'')
}
