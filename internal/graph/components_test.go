package graph

import (
	"testing"

	"pfg/internal/ws"
)

func TestComponentsWithoutRemovals(t *testing.T) {
	// Two triangles joined by a bridge: 0-1-2-0, 2-3, 3-4-5-3.
	edges := []Edge{
		{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
		{2, 3, 1},
		{3, 4, 1}, {4, 5, 1}, {3, 5, 1},
	}
	g, err := FromEdgesWS(nil, 6, edges)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		removed []int32
		want    [][]int32 // ordered by smallest vertex; members sorted here for comparison
	}{
		{"none", nil, [][]int32{{0, 1, 2, 3, 4, 5}}},
		{"bridge endpoint", []int32{3}, [][]int32{{0, 1, 2}, {4, 5}}},
		{"cut vertex 2", []int32{2}, [][]int32{{0, 1}, {3, 4, 5}}},
		{"both hubs", []int32{2, 3}, [][]int32{{0, 1}, {4, 5}}},
		{"all", []int32{0, 1, 2, 3, 4, 5}, nil},
		{"isolate one", []int32{0, 1, 2, 3, 4}, [][]int32{{5}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comps := g.ComponentsWithout(tc.removed)
			if len(comps) != len(tc.want) {
				t.Fatalf("got %d components %v, want %d", len(comps), comps, len(tc.want))
			}
			for k, comp := range comps {
				got := map[int32]bool{}
				for _, v := range comp {
					got[v] = true
				}
				if len(got) != len(tc.want[k]) {
					t.Fatalf("component %d = %v, want members %v", k, comp, tc.want[k])
				}
				for _, v := range tc.want[k] {
					if !got[v] {
						t.Fatalf("component %d = %v missing %d", k, comp, v)
					}
				}
			}
			// The count-only form must agree.
			w := ws.Get()
			defer ws.Put(w)
			if n := g.NumComponentsWithout(w, tc.removed); n != len(tc.want) {
				t.Fatalf("NumComponentsWithout = %d, want %d", n, len(tc.want))
			}
		})
	}
}

func TestComponentsFlatGroupingMatchesRagged(t *testing.T) {
	g := pathGraph(t, 10)
	w := ws.Get()
	defer ws.Put(w)
	flat := g.Components(w)
	defer w.PutGrouping(flat)
	ragged := g.ComponentsWithout(nil)
	if flat.NumGroups() != len(ragged) {
		t.Fatalf("flat %d groups, ragged %d", flat.NumGroups(), len(ragged))
	}
	for k := range ragged {
		fg := flat.Group(k)
		if len(fg) != len(ragged[k]) {
			t.Fatalf("group %d: flat %v vs ragged %v", k, fg, ragged[k])
		}
		for i := range fg {
			if fg[i] != ragged[k][i] {
				t.Fatalf("group %d order differs: flat %v vs ragged %v", k, fg, ragged[k])
			}
		}
	}
}

func TestComponentsDeterministicOrder(t *testing.T) {
	g := pathGraph(t, 8)
	// Remove the middle: components must be ordered by smallest vertex and
	// identical across repeated calls (pooled scratch must not leak state).
	var first [][]int32
	for trial := 0; trial < 5; trial++ {
		comps := g.ComponentsWithout([]int32{3, 4})
		if trial == 0 {
			first = comps
			continue
		}
		if len(comps) != len(first) {
			t.Fatalf("trial %d: %d components, want %d", trial, len(comps), len(first))
		}
		for k := range comps {
			for i := range comps[k] {
				if comps[k][i] != first[k][i] {
					t.Fatalf("trial %d: component %d = %v, want %v", trial, k, comps[k], first[k])
				}
			}
		}
	}
	if first[0][0] != 0 || first[1][0] != 5 {
		t.Fatalf("components not ordered by smallest vertex: %v", first)
	}
}

func TestConnectedMatchesComponents(t *testing.T) {
	g := pathGraph(t, 12)
	if !g.Connected() {
		t.Fatal("path should be connected")
	}
	if g.Connected(6) {
		t.Fatal("path minus interior vertex should be disconnected")
	}
	if !g.Connected(0) || !g.Connected(11) {
		t.Fatal("path minus an endpoint should stay connected")
	}
	w := ws.Get()
	defer ws.Put(w)
	for _, removed := range [][]int32{nil, {6}, {0}, {0, 11}, {1, 10}} {
		want := g.NumComponentsWithout(w, removed) <= 1
		if got := g.Connected(removed...); got != want {
			t.Fatalf("Connected(%v) = %v, NumComponents disagrees", removed, got)
		}
	}
}
