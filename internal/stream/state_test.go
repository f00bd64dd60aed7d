package stream

import (
	"math"
	"strings"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/kernel"
	"pfg/internal/ws"
)

// cloneState deep-copies a State's arrays so mutations for negative tests
// (and restores that outlive the source engine) own their storage.
func cloneState(st State) State {
	cp := st
	if st.Ring != nil {
		cp.Ring = append([]float64(nil), st.Ring...)
	}
	if st.G != nil {
		cp.G = append([]float64(nil), st.G...)
	}
	if st.GCur != nil {
		cp.GCur = append([]float64(nil), st.GCur...)
	}
	cp.Sums = append([]float64(nil), st.Sums...)
	return cp
}

// sameEngineBits asserts two engines expose bit-identical snapshot state
// (moment band + sums via CopyState) and identical counters.
func sameEngineBits(t *testing.T, tag string, a, b *Engine) {
	t.Helper()
	if a.Len() != b.Len() || a.N() != b.N() || a.Generation() != b.Generation() || a.Exact() != b.Exact() {
		t.Fatalf("%s: counters diverge: len %d/%d n %d/%d gen %d/%d exact %v/%v",
			tag, a.Len(), b.Len(), a.N(), b.N(), a.Generation(), b.Generation(), a.Exact(), b.Exact())
	}
	n := a.N()
	ga, sa := make([]float64, n*n), make([]float64, n)
	gb, sb := make([]float64, n*n), make([]float64, n)
	a.CopyState(ga, sa)
	b.CopyState(gb, sb)
	for i := range ga {
		if math.Float64bits(ga[i]) != math.Float64bits(gb[i]) {
			t.Fatalf("%s: band[%d] %v != %v", tag, i, ga[i], gb[i])
		}
	}
	for i := range sa {
		if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
			t.Fatalf("%s: sums[%d] %v != %v", tag, i, sa[i], sb[i])
		}
	}
}

// TestStateRoundTrip is the restore bit-identity property at the engine
// layer: State → NewFromState reproduces the exact bits, and — the part a
// simple copy test would miss — the restored engine EVOLVES identically:
// subsequent pushes (crossing panel folds, the fill boundary, and periodic
// rebuilds) land on bit-identical states.
func TestStateRoundTrip(t *testing.T) {
	cases := []struct {
		name         string
		n, window    int
		rebuildEvery int
		fill         int // pushes before the checkpoint
		extra        int // pushes replayed after restore on both engines
	}{
		{"f64-midfill", 6, 16, 4, 9, 20},
		{"f64-rolled", 6, 16, 4, 16 + 10, 13},
		// A multi-panel window (> kernel.PanelLen) mid-fill carries the
		// gCur split, crossing a panel boundary during the replayed pushes.
		{"f64-multipanel", 3, kernel.PanelLen + 40, 6, kernel.PanelLen + 20, 60},
	}
	pool := exec.New(1)
	defer pool.Close()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.window > kernel.PanelLen && tc.fill < tc.window {
				// Sanity: this case must actually exercise the gCur path.
				if tc.fill <= kernel.PanelLen {
					t.Fatalf("bad case: fill %d does not reach the second panel", tc.fill)
				}
			}
			feed := ticks(int64(tc.n)*1000+int64(tc.window), tc.n, tc.fill+tc.extra)
			orig, err := New(tc.n, tc.window, tc.rebuildEvery, ws.New())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.fill; i++ {
				if err := orig.Push(pool, feed[i]); err != nil {
					t.Fatal(err)
				}
			}
			st := orig.State()
			if tc.window > kernel.PanelLen && tc.fill < tc.window && st.GCur == nil {
				t.Fatal("multi-panel mid-fill state is missing the current-panel band")
			}
			restored, err := NewFromState(cloneState(st), ws.New())
			if err != nil {
				t.Fatal(err)
			}
			sameEngineBits(t, "restored", orig, restored)
			for i := tc.fill; i < tc.fill+tc.extra; i++ {
				if err := orig.Push(pool, feed[i]); err != nil {
					t.Fatal(err)
				}
				if err := restored.Push(pool, feed[i]); err != nil {
					t.Fatal(err)
				}
				sameEngineBits(t, tc.name, orig, restored)
			}
			// A forced rebuild must land both on the same exact state too.
			orig.Rebuild(pool)
			restored.Rebuild(pool)
			sameEngineBits(t, tc.name+"/rebuilt", orig, restored)
		})
	}
}

// TestStateEmptyEngine round-trips an engine that has admitted nothing.
func TestStateEmptyEngine(t *testing.T) {
	e, err := New(4, 8, 2, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	st := e.State()
	r, err := NewFromState(cloneState(st), ws.New())
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 0 || r.Generation() != 0 || !r.Exact() {
		t.Fatalf("restored empty engine: len %d gen %d exact %v", r.Len(), r.Generation(), r.Exact())
	}
}

// TestStateValidation rejects every class of structurally broken state with
// a descriptive error instead of building a poisoned engine.
func TestStateValidation(t *testing.T) {
	pool := exec.New(1)
	defer pool.Close()
	base := func(t *testing.T) State {
		e, err := New(4, 8, 4, ws.New())
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range ticks(7, 4, 11) {
			if err := e.Push(pool, x); err != nil {
				t.Fatal(err)
			}
		}
		st := e.State()
		return cloneState(st)
	}
	cases := []struct {
		name string
		mut  func(*State)
		want string
	}{
		{"zero-n", func(s *State) { s.N = 0 }, "series"},
		{"window-1", func(s *State) { s.Window = 1 }, "window"},
		{"count-over", func(s *State) { s.Count = s.Window + 1 }, "count"},
		{"head-over", func(s *State) { s.Head = s.Window }, "head"},
		{"head-fill-mismatch", func(s *State) { s.Count, s.Slides = 3, 0; s.Head = 5 }, "head"},
		{"negative-slides", func(s *State) { s.Slides = -1 }, "slides"},
		{"slides-unfilled", func(s *State) { s.Count = s.Window - 1; s.Head = s.Count }, "slides"},
		{"short-sums", func(s *State) { s.Sums = s.Sums[:2] }, "sums"},
		{"nan-sum", func(s *State) { s.Sums[0] = math.NaN() }, "non-finite"},
		{"short-ring", func(s *State) { s.Ring = s.Ring[:len(s.Ring)-1] }, "ring"},
		{"short-band", func(s *State) { s.G = s.G[:len(s.G)-1] }, "band"},
		{"nan-ring", func(s *State) { s.Ring[0] = math.NaN() }, "ring"},
		{"huge-ring", func(s *State) { s.Ring[3] = math.MaxFloat64 }, "magnitude"},
		{"inf-band", func(s *State) { s.G[1] = math.Inf(1) }, "band"},
		{"stray-gcur", func(s *State) { s.GCur = make([]float64, s.N*s.N) }, "current-panel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := base(t)
			tc.mut(&st)
			if _, err := NewFromState(st, ws.New()); err == nil {
				t.Fatal("broken state accepted")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
