package dendro

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// chain4 is a dendrogram over 4 leaves: (0,1)@1 → +2@2 → +3@3.
func chain4() *Dendrogram {
	return &Dendrogram{N: 4, Merges: []Merge{
		{A: 0, B: 1, Height: 1},
		{A: 4, B: 2, Height: 2},
		{A: 5, B: 3, Height: 3},
	}}
}

func TestValidateGood(t *testing.T) {
	if err := chain4().Validate(0); err != nil {
		t.Fatal(err)
	}
	single := &Dendrogram{N: 1}
	if err := single.Validate(0); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Wrong merge count.
	d := &Dendrogram{N: 4, Merges: []Merge{{A: 0, B: 1, Height: 1}}}
	if err := d.Validate(0); err == nil {
		t.Fatal("wrong merge count accepted")
	}
	// Child used twice.
	d2 := &Dendrogram{N: 3, Merges: []Merge{
		{A: 0, B: 1, Height: 1},
		{A: 0, B: 2, Height: 2},
	}}
	if err := d2.Validate(0); err == nil {
		t.Fatal("reused child accepted")
	}
	// Non-monotone heights.
	d3 := &Dendrogram{N: 3, Merges: []Merge{
		{A: 0, B: 1, Height: 5},
		{A: 3, B: 2, Height: 1},
	}}
	if err := d3.Validate(0); err == nil {
		t.Fatal("non-monotone heights accepted")
	}
	// Forward reference.
	d4 := &Dendrogram{N: 3, Merges: []Merge{
		{A: 0, B: 4, Height: 1},
		{A: 3, B: 1, Height: 2},
	}}
	if err := d4.Validate(0); err == nil {
		t.Fatal("forward reference accepted")
	}
}

func TestRoot(t *testing.T) {
	if got := chain4().Root(); got != 6 {
		t.Fatalf("root=%d want 6", got)
	}
	if got := (&Dendrogram{N: 1}).Root(); got != 0 {
		t.Fatalf("single-leaf root=%d want 0", got)
	}
}

func TestCutAllLevels(t *testing.T) {
	d := chain4()
	// k=1: everything together.
	l1, err := d.Cut(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range l1 {
		if l != 0 {
			t.Fatalf("k=1: labels %v", l1)
		}
	}
	// k=2: {0,1,2} vs {3}.
	l2, err := d.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if !(l2[0] == l2[1] && l2[1] == l2[2] && l2[3] != l2[0]) {
		t.Fatalf("k=2: labels %v", l2)
	}
	// k=3: {0,1}, {2}, {3}.
	l3, err := d.Cut(3)
	if err != nil {
		t.Fatal(err)
	}
	if !(l3[0] == l3[1] && l3[2] != l3[0] && l3[3] != l3[0] && l3[2] != l3[3]) {
		t.Fatalf("k=3: labels %v", l3)
	}
	// k=4: all separate.
	l4, err := d.Cut(4)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, l := range l4 {
		if seen[l] {
			t.Fatalf("k=4: labels %v", l4)
		}
		seen[l] = true
	}
	// Out of range.
	if _, err := d.Cut(0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := d.Cut(5); err == nil {
		t.Fatal("k>n accepted")
	}
}

func TestCutLabelsAreCanonical(t *testing.T) {
	// Labels must be assigned by smallest leaf id per cluster: leaf 0's
	// cluster gets label 0.
	d := chain4()
	l2, err := d.Cut(2)
	if err != nil {
		t.Fatal(err)
	}
	if l2[0] != 0 {
		t.Fatalf("leaf 0 should be in cluster 0, got %v", l2)
	}
	if l2[3] != 1 {
		t.Fatalf("leaf 3 should be in cluster 1, got %v", l2)
	}
}

func TestCutWithTiedHeights(t *testing.T) {
	// Balanced tree with all heights equal: cutting must still produce
	// exactly k clusters.
	d := &Dendrogram{N: 4, Merges: []Merge{
		{A: 0, B: 1, Height: 1},
		{A: 2, B: 3, Height: 1},
		{A: 4, B: 5, Height: 1},
	}}
	if err := d.Validate(0); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 4; k++ {
		labels, err := d.Cut(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		distinct := map[int]bool{}
		for _, l := range labels {
			distinct[l] = true
		}
		if len(distinct) != k {
			t.Fatalf("k=%d: got %d clusters (%v)", k, len(distinct), labels)
		}
	}
}

func TestNewickChain(t *testing.T) {
	d := chain4()
	s, err := d.Newick(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := "(((L0:1,L1:1):1,L2:2):1,L3:3);"
	if s != want {
		t.Fatalf("newick %q want %q", s, want)
	}
}

func TestNewickNamesAndEscaping(t *testing.T) {
	d := &Dendrogram{N: 2, Merges: []Merge{{A: 0, B: 1, Height: 2}}}
	s, err := d.Newick([]string{"plain", "needs escape"})
	if err != nil {
		t.Fatal(err)
	}
	if s != "(plain:2,'needs escape':2);" {
		t.Fatalf("newick %q", s)
	}
	if _, err := d.Newick([]string{"only-one"}); err == nil {
		t.Fatal("wrong name count accepted")
	}
	single := &Dendrogram{N: 1}
	out, err := single.Newick(nil)
	if err != nil || out != "L0;" {
		t.Fatalf("single leaf newick %q err %v", out, err)
	}
}

func TestNewickBalanced(t *testing.T) {
	d := &Dendrogram{N: 4, Merges: []Merge{
		{A: 0, B: 1, Height: 1},
		{A: 2, B: 3, Height: 2},
		{A: 4, B: 5, Height: 4},
	}}
	s, err := d.Newick(nil)
	if err != nil {
		t.Fatal(err)
	}
	if s != "((L0:1,L1:1):3,(L2:2,L3:2):2);" {
		t.Fatalf("newick %q", s)
	}
}

// newickSprintf is the nested-fmt.Sprintf Newick writer the one-pass writer
// replaced, kept as its oracle: every level re-copies its subtree's string,
// so it is quadratic on deep trees, but its output is the compatibility
// surface.
func newickSprintf(d *Dendrogram, names []string) string {
	name := func(i int32) string {
		if names != nil {
			s := names[i]
			if strings.ContainsAny(s, "(),:;'\" \t\n[]") {
				return "'" + strings.ReplaceAll(s, "'", "''") + "'"
			}
			return s
		}
		return "L" + strconv.Itoa(int(i))
	}
	height := func(node int32) float64 {
		if node < int32(d.N) {
			return 0
		}
		return d.Merges[node-int32(d.N)].Height
	}
	var build func(node int32, parentHeight float64) string
	build = func(node int32, parentHeight float64) string {
		length := parentHeight - height(node)
		if length < 0 {
			length = 0
		}
		if node < int32(d.N) {
			return fmt.Sprintf("%s:%g", name(node), length)
		}
		m := d.Merges[node-int32(d.N)]
		return fmt.Sprintf("(%s,%s):%g", build(m.A, m.Height), build(m.B, m.Height), length)
	}
	if d.N == 1 {
		return name(0) + ";"
	}
	m := d.Merges[d.Root()-int32(d.N)]
	return fmt.Sprintf("(%s,%s);", build(m.A, m.Height), build(m.B, m.Height))
}

// randomDendrogram merges random pairs of live nodes. Heights mix ties,
// children above their parent (the branch length clamps to 0), and the
// values %g formats specially: ±Inf, NaN, −0, the smallest subnormal, 1e21
// and MaxFloat64.
func randomDendrogram(rng *rand.Rand, n int) *Dendrogram {
	specials := []float64{
		math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 0,
		5e-324, 1e21, math.MaxFloat64, -math.MaxFloat64, 1e-7, 123456789,
	}
	live := make([]int32, n)
	for i := range live {
		live[i] = int32(i)
	}
	d := &Dendrogram{N: n}
	h := 0.0
	for len(live) > 1 {
		a := rng.Intn(len(live))
		na := live[a]
		live[a] = live[len(live)-1]
		live = live[:len(live)-1]
		b := rng.Intn(len(live))
		nb := live[b]
		switch rng.Intn(5) {
		case 0: // tie with the previous merge
		case 1:
			h = specials[rng.Intn(len(specials))]
		case 2:
			h -= rng.Float64() // below its children: clamps
		default:
			h += rng.ExpFloat64()
		}
		d.Merges = append(d.Merges, Merge{A: na, B: nb, Height: h})
		live[b] = int32(n + len(d.Merges) - 1)
	}
	return d
}

// TestNewickMatchesSprintf pins the one-pass writer to the Sprintf oracle
// byte for byte, with default and escaped leaf names.
func TestNewickMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 4, 7, 16, 33, 100, 257} {
		for trial := 0; trial < 8; trial++ {
			d := randomDendrogram(rng, n)
			var names []string
			if trial%2 == 1 {
				names = make([]string, n)
				for i := range names {
					switch rng.Intn(4) {
					case 0:
						names[i] = fmt.Sprintf("it's (%d)", i)
					case 1:
						names[i] = fmt.Sprintf("a b:%d;[x]", i)
					default:
						names[i] = fmt.Sprintf("s%d", i)
					}
				}
			}
			got, err := d.Newick(names)
			if err != nil {
				t.Fatal(err)
			}
			if want := newickSprintf(d, names); got != want {
				t.Fatalf("n=%d trial=%d: newick diverges from the Sprintf oracle\n got: %s\nwant: %s", n, trial, got, want)
			}
		}
	}
}
