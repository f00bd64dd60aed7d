package experiments

import (
	"fmt"
	"strings"

	"pfg/internal/matrix"
	"pfg/internal/ws"
)

// appendixMatrix is the 6×6 correlation matrix from Figure 12 of the paper;
// ground truth clusters are {0,1,2} and {3,4,5}.
func appendixMatrix() *matrix.Sym {
	rows := [][]float64{
		{1, 0.8, 0.4, 0.8, 0.8, 0.4},
		{0.8, 1, 0.41, 0.9, 0.4, 0},
		{0.4, 0.41, 1, 0, 0.4, 0.42},
		{0.8, 0.9, 0, 1, 0.8, 0.8},
		{0.8, 0.4, 0.4, 0.8, 1, 0.8},
		{0.4, 0, 0.42, 0.8, 0.8, 1},
	}
	s := matrix.NewSym(6)
	for i := range rows {
		for j := range rows[i] {
			s.Data[i*6+j] = rows[i][j]
		}
	}
	return s
}

// Appendix reproduces the worked example of Figures 12–13: with PREFIX=1
// the noise edge corr(2,5)=0.42 misroutes vertex 2, while PREFIX=3 inserts
// vertices 2 and 5 in one round and recovers the ground-truth clustering
// {0,1,2} | {3,4,5}.
func Appendix(Config) string {
	s := appendixMatrix()
	var b strings.Builder
	b.WriteString("Appendix example (Figures 12-13): prefix=1 vs prefix=3\n\n")
	w := ws.Get()
	defer ws.Put(w)
	for _, prefix := range []int{1, 3} {
		r := mustTMFGDBHT(w, s, nil, prefix)
		labels, err := r.CutLabels(2)
		if err != nil {
			panic(err)
		}
		match := labels[0] == labels[1] && labels[1] == labels[2] &&
			labels[3] == labels[4] && labels[4] == labels[5] && labels[0] != labels[3]
		fmt.Fprintf(&b, "prefix=%d: 2-cut labels %v — ground truth {0,1,2}|{3,4,5} recovered: %v\n",
			prefix, labels, match)
	}
	b.WriteString("\nExpected (paper): prefix=1 fails, prefix=3 recovers the ground truth.\n")
	return b.String()
}
