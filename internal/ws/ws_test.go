package ws

import (
	"sync"
	"testing"
)

func TestNilWorkspaceFallsBack(t *testing.T) {
	var w *Workspace
	if got := w.Int32(5); len(got) != 5 {
		t.Fatalf("nil Int32 len = %d", len(got))
	}
	if got := w.Float64(7); len(got) != 7 {
		t.Fatalf("nil Float64 len = %d", len(got))
	}
	if got := w.Bitset(9); got.Len() != 9 {
		t.Fatalf("nil Bitset len = %d", got.Len())
	}
	g := w.Grouping()
	if g.NumGroups() != 0 {
		t.Fatalf("nil Grouping has %d groups", g.NumGroups())
	}
	// Releases must be no-ops, not panics.
	w.PutInt32(nil)
	w.PutFloat64(nil)
	w.PutBitset(nil)
	w.PutGrouping(nil)
}

func TestWorkspaceReusesBuffers(t *testing.T) {
	w := new(Workspace)
	a := w.Int32(100)
	a[0] = 42
	w.PutInt32(a)
	b := w.Int32(50)
	if cap(b) < 100 {
		t.Fatalf("Int32 did not reuse: cap=%d", cap(b))
	}
	w.PutInt32(b)
	// A request larger than anything pooled allocates fresh.
	c := w.Int32(1000)
	if len(c) != 1000 {
		t.Fatalf("len = %d", len(c))
	}

	s := w.Bitset(64)
	s.Set(3)
	w.PutBitset(s)
	s2 := w.Bitset(32)
	if s2.Test(3) {
		t.Fatal("reused bitset not cleared")
	}
	if s2 != s {
		t.Fatal("bitset not reused")
	}

	f := w.Float64(10)
	w.PutFloat64(f)
	if f2 := w.Float64(10); len(f2) != 10 {
		t.Fatalf("Float64 len = %d", len(f2))
	}
}

func TestWorkspaceConcurrentAcquire(t *testing.T) {
	w := new(Workspace)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				b := w.Int32(64)
				for k := range b {
					b[k] = int32(k)
				}
				s := w.Bitset(128)
				s.Set(int32(j % 128))
				w.PutBitset(s)
				w.PutInt32(b)
			}
		}()
	}
	wg.Wait()
}

func TestGroupingBuild(t *testing.T) {
	g := new(Grouping)
	g.Reset()
	g.Append(5)
	g.Append(7)
	g.EndGroup()
	g.EndGroup() // empty group
	g.Append(1)
	g.EndGroup()
	if g.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d", g.NumGroups())
	}
	if got := g.Group(0); len(got) != 2 || got[0] != 5 || got[1] != 7 {
		t.Fatalf("Group(0) = %v", got)
	}
	if got := g.Group(1); len(got) != 0 {
		t.Fatalf("Group(1) = %v", got)
	}
	if got := g.Group(2); len(got) != 1 || got[0] != 1 {
		t.Fatalf("Group(2) = %v", got)
	}
	g.Reset()
	if g.NumGroups() != 0 || len(g.Data) != 0 {
		t.Fatal("Reset did not empty grouping")
	}
}

func TestGroupingStartFromCounts(t *testing.T) {
	g := new(Grouping)
	g.Reset()
	counts := []int32{2, 0, 3}
	cur := g.StartFromCounts(counts, nil)
	// Fill out of order.
	g.Data[cur[2]] = 30
	cur[2]++
	g.Data[cur[0]] = 10
	cur[0]++
	g.Data[cur[2]] = 31
	cur[2]++
	g.Data[cur[0]] = 11
	cur[0]++
	g.Data[cur[2]] = 32
	cur[2]++
	if g.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d", g.NumGroups())
	}
	want := [][]int32{{10, 11}, {}, {30, 31, 32}}
	for k, wg := range want {
		got := g.Group(k)
		if len(got) != len(wg) {
			t.Fatalf("group %d = %v, want %v", k, got, wg)
		}
		for i := range wg {
			if got[i] != wg[i] {
				t.Fatalf("group %d = %v, want %v", k, got, wg)
			}
		}
	}
}

func TestGlobalPoolRoundTrip(t *testing.T) {
	w := Get()
	b := w.Int32(16)
	w.PutInt32(b)
	Put(w)
	w2 := Get()
	_ = w2.Int32(16)
	Put(w2)
}
