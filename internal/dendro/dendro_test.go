package dendro

import (
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
