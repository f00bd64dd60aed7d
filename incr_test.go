package pfg

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
)

// incShadow pairs an incremental streamer with a bit-identical shadow: a
// plain streamer fed the same pushes, snapshotted at every generation. The
// incremental serving contract is then directly checkable — a snapshot
// reporting TicksSinceExact = s at generation g must be bit-identical to
// the shadow's exact snapshot at generation g−s.
type incShadow struct {
	inc    *Streamer
	shadow *Streamer
	// byGen holds the shadow's exact clustering per generation.
	byGen map[uint64]*Result
}

func newIncShadow(t *testing.T, window int, opts StreamOptions) *incShadow {
	t.Helper()
	if opts.Cluster.Workers == 0 {
		opts.Cluster.Workers = 1 // determinism is the whole point
	}
	is := &incShadow{byGen: map[uint64]*Result{}}
	var err error
	if is.inc, err = NewStreamer(window, opts); err != nil {
		t.Fatal(err)
	}
	plain := opts
	plain.Incremental = IncrementalOptions{}
	if is.shadow, err = NewStreamer(window, plain); err != nil {
		t.Fatal(err)
	}
	return is
}

func (is *incShadow) Close() {
	is.inc.Close()
	is.shadow.Close()
}

// push feeds both streamers and records the shadow's exact clustering for
// the new generation (once the window is snapshot-ready).
func (is *incShadow) push(t *testing.T, x []float64) {
	t.Helper()
	if err := is.inc.Push(x); err != nil {
		t.Fatal(err)
	}
	if err := is.shadow.Push(x); err != nil {
		t.Fatal(err)
	}
	r, gen, err := is.shadow.SnapshotGen(context.Background())
	if err != nil {
		return // under-filled window or method minimum; nothing to record
	}
	is.byGen[gen] = r
}

// rebuild forces an exact rebuild on both streamers and records the
// shadow's clustering for the post-rebuild generation.
func (is *incShadow) rebuild(t *testing.T) {
	t.Helper()
	if err := is.inc.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := is.shadow.Rebuild(); err != nil {
		t.Fatal(err)
	}
	r, gen, err := is.shadow.SnapshotGen(context.Background())
	if err != nil {
		return
	}
	is.byGen[gen] = r
}

// check snapshots the incremental streamer and asserts the serving
// contract against the shadow. It returns the snapshot for extra checks,
// or nil if the window is not snapshot-ready.
func (is *incShadow) check(t *testing.T, tag string, k int) *Result {
	t.Helper()
	snap, gen, err := is.inc.SnapshotGen(context.Background())
	if err != nil {
		// Must fail in lockstep with the shadow.
		if _, _, serr := is.shadow.SnapshotGen(context.Background()); serr == nil {
			t.Fatalf("%s: incremental snapshot failed (%v) but shadow succeeded", tag, err)
		}
		return nil
	}
	if snap.TicksSinceExact < 0 {
		t.Fatalf("%s: negative staleness %d", tag, snap.TicksSinceExact)
	}
	eps := is.inc.opts.Incremental.DriftThreshold
	if eps == 0 {
		eps = 0.02
	}
	if snap.TicksSinceExact > 0 && snap.Drift > eps {
		t.Fatalf("%s: served drift %v beyond threshold %v", tag, snap.Drift, eps)
	}
	maxStale := is.inc.opts.Incremental.MaxStale
	if maxStale == 0 {
		maxStale = 64
	}
	if maxStale > 0 && snap.TicksSinceExact >= maxStale {
		t.Fatalf("%s: served staleness %d beyond bound %d", tag, snap.TicksSinceExact, maxStale)
	}
	refGen := gen - uint64(snap.TicksSinceExact)
	want, ok := is.byGen[refGen]
	if !ok {
		t.Fatalf("%s: no shadow clustering recorded for reference generation %d (now %d, stale %d)",
			tag, refGen, gen, snap.TicksSinceExact)
	}
	sameResult(t, tag, snap, want, k)
	return snap
}

// TestIncrementalMatchesBatchAtBoundaries is the incremental layer's half of
// the streaming equivalence property: with Workers:1, snapshots at the fill
// boundary, right after the periodic rebuild, and right after a forced
// rebuild are bit-identical to batch Cluster on the same window — and report
// zero staleness and drift. Between boundaries, every snapshot matches the
// shadow's exact clustering of its reference generation.
func TestIncrementalMatchesBatchAtBoundaries(t *testing.T) {
	const n, window, K, k = 12, 24, 8, 3
	stream := tickStream(t, n, window+2*K+3, 31)
	for _, m := range []Method{TMFGDBHT, CompleteLinkage, AverageLinkage} {
		t.Run(m.String(), func(t *testing.T) {
			opts := Options{Method: m, Prefix: 2, Workers: 1}
			is := newIncShadow(t, window, StreamOptions{
				Cluster:      opts,
				RebuildEvery: K,
				// At window=24 a single slide moves correlations well past the
				// production default ε; loosen it so the hit path is exercised.
				// The serving contract is still asserted against this ε.
				Incremental: IncrementalOptions{Enabled: true, DriftThreshold: 0.5},
			})
			defer is.Close()
			boundary := func(tag string, pushed int) {
				t.Helper()
				snap := is.check(t, tag, k)
				if snap == nil {
					t.Fatalf("%s: no snapshot", tag)
				}
				if snap.TicksSinceExact != 0 || snap.Drift != 0 {
					t.Fatalf("%s: boundary snapshot reports stale=%d drift=%v",
						tag, snap.TicksSinceExact, snap.Drift)
				}
				batch, err := Cluster(windowSeries(stream, pushed, window, n), opts)
				if err != nil {
					t.Fatalf("%s: batch: %v", tag, err)
				}
				sameResult(t, tag, snap, batch, k)
			}
			for p, x := range stream {
				is.push(t, x)
				pushed := p + 1
				switch {
				case pushed == window:
					boundary("fill", pushed)
				case pushed == window+K:
					if !is.inc.Exact() {
						t.Fatalf("tick %d: periodic rebuild did not run", pushed)
					}
					boundary("periodic-rebuild", pushed)
				case pushed == window+K+3:
					is.rebuild(t)
					boundary("forced-rebuild", pushed)
				default:
					is.check(t, fmt.Sprintf("tick-%d", pushed), k)
				}
			}
			stats, on := is.inc.IncrementalStats()
			if !on {
				t.Fatal("incremental layer reports disabled")
			}
			if stats.Hits == 0 {
				t.Fatal("no incremental hits over the whole run")
			}
			if stats.Fulls != stats.FullInit+stats.FullBoundary+stats.FullDrift+stats.FullStale {
				t.Fatalf("gate counters don't sum: %+v", stats)
			}
		})
	}
}

// TestIncrementalForcedFallback: a negative drift threshold forces the exact
// path on every snapshot — every tick matches batch behavior exactly via the
// shadow, nothing is ever served stale, and the hit counter stays zero.
func TestIncrementalForcedFallback(t *testing.T) {
	const n, window, k = 8, 12, 2
	stream := tickStream(t, n, window+6, 43)
	is := newIncShadow(t, window, StreamOptions{
		Cluster:     Options{Method: TMFGDBHT, Prefix: 2, Workers: 1},
		Incremental: IncrementalOptions{Enabled: true, DriftThreshold: -1},
	})
	defer is.Close()
	for p, x := range stream {
		is.push(t, x)
		if snap := is.check(t, fmt.Sprintf("tick-%d", p+1), k); snap != nil {
			if snap.TicksSinceExact != 0 || snap.Drift != 0 {
				t.Fatalf("tick %d: forced fallback served stale=%d drift=%v",
					p+1, snap.TicksSinceExact, snap.Drift)
			}
		}
	}
	stats, _ := is.inc.IncrementalStats()
	if stats.Hits != 0 {
		t.Fatalf("forced fallback recorded %d hits", stats.Hits)
	}
	if stats.FullDrift == 0 {
		t.Fatal("forced fallback never tripped the drift gate")
	}
}

// TestIncrementalRebuildEveryOne: the RebuildEvery=1 degeneracy keeps the
// engine exact on every slide, so every snapshot is a boundary refresh and
// stays bit-identical to batch on every single tick.
func TestIncrementalRebuildEveryOne(t *testing.T) {
	const n, window, k = 8, 10, 2
	stream := tickStream(t, n, window+5, 59)
	opts := Options{Method: CompleteLinkage, Workers: 1}
	is := newIncShadow(t, window, StreamOptions{
		Cluster:      opts,
		RebuildEvery: 1,
		Incremental:  IncrementalOptions{Enabled: true},
	})
	defer is.Close()
	for p, x := range stream {
		is.push(t, x)
		pushed := p + 1
		snap := is.check(t, fmt.Sprintf("tick-%d", pushed), k)
		if snap == nil {
			continue
		}
		if snap.TicksSinceExact != 0 {
			t.Fatalf("tick %d: rebuild-every-1 served a stale result (stale=%d)", pushed, snap.TicksSinceExact)
		}
		batch, err := Cluster(windowSeries(stream, pushed, window, n), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("tick-%d", pushed), snap, batch, k)
	}
}

// TestIncrementalMinSeries: the incremental layer at n just above
// Method.MinSeries() — the smallest TMFG (n=4, a bare 4-clique with no
// insertion rounds) and the smallest HAC (n=2, the single-merge shortcut) —
// honors the same serving contract.
func TestIncrementalMinSeries(t *testing.T) {
	cases := []struct {
		method Method
		n      int
	}{
		{TMFGDBHT, 4},
		{TMFGDBHT, 5},
		{CompleteLinkage, 2},
		{CompleteLinkage, 3},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s_n%d", c.method, c.n), func(t *testing.T) {
			const window = 8
			// tsgen needs n >= 3 classes; generate tiny streams directly.
			stream := make([][]float64, window+10)
			for p := range stream {
				x := make([]float64, c.n)
				for i := range x {
					x[i] = math.Sin(float64(p+1)*0.7+float64(i)*1.3) + 0.25*float64(i)
				}
				stream[p] = x
			}
			is := newIncShadow(t, window, StreamOptions{
				Cluster:      Options{Method: c.method, Prefix: 1, Workers: 1},
				RebuildEvery: 4,
				Incremental:  IncrementalOptions{Enabled: true, MaxStale: 3},
			})
			defer is.Close()
			for p, x := range stream {
				is.push(t, x)
				is.check(t, fmt.Sprintf("tick-%d", p+1), 2)
			}
		})
	}
}

// TestIncrementalGoldenAcrossRebuild replays the golden corpus input through
// an incremental streamer: the fill-boundary snapshot must reproduce the
// committed golden fixture bit for bit, and the snapshot right after a
// periodic rebuild later in the same incremental run must match batch.
func TestIncrementalGoldenAcrossRebuild(t *testing.T) {
	const K = 6
	for _, c := range goldenCases() {
		if c.Method == PMFGDBHT {
			continue // incremental streaming does not support PMFG
		}
		t.Run(fmt.Sprintf("%s_n%d", c.Method, c.N), func(t *testing.T) {
			series := goldenSeries(c.N)
			window := len(series[0])
			opts := Options{Method: c.Method, Prefix: 2, Workers: 1}
			is := newIncShadow(t, window, StreamOptions{
				Cluster:      opts,
				RebuildEvery: K,
				Incremental:  IncrementalOptions{Enabled: true},
			})
			defer is.Close()
			// The golden series as ticks, then one rebuild period more of
			// deterministic follow-on ticks to cross a periodic rebuild
			// inside the incremental run.
			ticks := make([][]float64, window+K)
			for p := range ticks {
				x := make([]float64, c.N)
				for i := range x {
					x[i] = series[i][p%window]
				}
				ticks[p] = x
			}
			for p, x := range ticks {
				is.push(t, x)
				pushed := p + 1
				switch pushed {
				case window:
					snap := is.check(t, "golden-fill", c.K)
					raw, err := os.ReadFile(goldenPath(c))
					if err != nil {
						t.Fatalf("missing golden file: %v", err)
					}
					var want goldenFixture
					if err := json.Unmarshal(raw, &want); err != nil {
						t.Fatal(err)
					}
					labels, err := snap.Cut(c.K)
					if err != nil {
						t.Fatal(err)
					}
					for i := range labels {
						if labels[i] != want.Labels[i] {
							t.Fatalf("label[%d] = %d, golden %d", i, labels[i], want.Labels[i])
						}
					}
					nw, err := snap.Newick(nil)
					if err != nil {
						t.Fatal(err)
					}
					if nw != want.Newick {
						t.Fatalf("newick differs from golden:\n got %s\nwant %s", nw, want.Newick)
					}
					if got := fmt.Sprintf("%x", snap.EdgeWeightSum); got != want.EdgeWeightSum {
						t.Fatalf("edge weight sum %s, golden %s", got, want.EdgeWeightSum)
					}
					if snap.Groups != want.Groups {
						t.Fatalf("groups %d, golden %d", snap.Groups, want.Groups)
					}
				case window + K:
					if !is.inc.Exact() {
						t.Fatalf("tick %d: periodic rebuild did not run", pushed)
					}
					snap := is.check(t, "golden-rebuild", c.K)
					if snap.TicksSinceExact != 0 {
						t.Fatalf("rebuild boundary served stale result (stale=%d)", snap.TicksSinceExact)
					}
					batch, err := Cluster(windowSeries(ticks, pushed, window, c.N), opts)
					if err != nil {
						t.Fatal(err)
					}
					sameResult(t, "golden-rebuild", snap, batch, c.K)
				default:
					is.check(t, fmt.Sprintf("tick-%d", pushed), c.K)
				}
			}
		})
	}
}

// TestIncrementalStalenessSurfaced: the staleness metadata reaches the JSON
// wire form, and exact results serialize byte-identically to their
// pre-incremental form (the new fields are omitempty).
func TestIncrementalStalenessSurfaced(t *testing.T) {
	const n, window = 8, 10
	stream := tickStream(t, n, window+8, 101)
	is := newIncShadow(t, window, StreamOptions{
		Cluster:      Options{Method: CompleteLinkage, Workers: 1},
		RebuildEvery: 1 << 20,
		Incremental:  IncrementalOptions{Enabled: true, MaxStale: -1, DriftThreshold: 1},
	})
	defer is.Close()
	var stale *Result
	for p, x := range stream {
		is.push(t, x)
		if snap := is.check(t, fmt.Sprintf("tick-%d", p+1), 2); snap != nil && snap.TicksSinceExact > 0 {
			stale = snap
		}
	}
	if stale == nil {
		t.Fatal("run produced no served-stale snapshot")
	}
	v, err := stale.JSON(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if v.StaleTicks != stale.TicksSinceExact || v.Drift != stale.Drift {
		t.Fatalf("wire staleness %d/%v, result %d/%v", v.StaleTicks, v.Drift, stale.TicksSinceExact, stale.Drift)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["stale_ticks"]; !ok {
		t.Fatal("stale_ticks missing from wire form of a stale result")
	}
	// Exact results omit the fields entirely.
	exact := &Result{Dendrogram: stale.Dendrogram}
	ev, err := exact.JSON(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	eraw, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	var edecoded map[string]any
	if err := json.Unmarshal(eraw, &edecoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := edecoded["stale_ticks"]; ok {
		t.Fatal("stale_ticks present on an exact result")
	}
	if _, ok := edecoded["drift"]; ok {
		t.Fatal("drift present on an exact result")
	}
}

// TestIncrementalHitsAreOwned: every snapshot is an owned copy, so a caller
// scribbling over one — the hit's or the refresh's — cannot corrupt the
// reference that later hits are served from.
func TestIncrementalHitsAreOwned(t *testing.T) {
	const n, window = 8, 10
	stream := tickStream(t, n, window+8, 103)
	for _, m := range []Method{TMFGDBHT, CompleteLinkage} {
		t.Run(m.String(), func(t *testing.T) {
			is := newIncShadow(t, window, StreamOptions{
				Cluster:      Options{Method: m, Workers: 1},
				RebuildEvery: 1 << 20,
				// Correlation drift never exceeds 2: every snapshot after the
				// first refresh is a hit.
				Incremental: IncrementalOptions{Enabled: true, MaxStale: -1, DriftThreshold: 2},
			})
			defer is.Close()
			for p, x := range stream {
				is.push(t, x)
				snap := is.check(t, fmt.Sprintf("tick-%d", p+1), 2)
				if snap == nil {
					continue
				}
				// check compares everything but the edge list.
				want := is.byGen[is.inc.Generation()-uint64(snap.TicksSinceExact)]
				if !slices.Equal(snap.Edges, want.Edges) {
					t.Fatalf("tick %d: edges %v, want %v", p+1, snap.Edges, want.Edges)
				}
				clear(snap.Dendrogram.Merges)
				clear(snap.Edges)
			}
			if stats, _ := is.inc.IncrementalStats(); stats.Hits < 2 {
				t.Fatalf("want at least 2 hits, got %+v", stats)
			}
		})
	}
}

// TestIncrementalOlderStampRefreshes drives the gate with moments stamped
// one generation before the reference, as a snapshot that copied them just
// before another snapshot refreshed the reference would: the result must be
// an exact clustering of those moments, counted as a boundary refresh, not a
// hit with negative staleness.
func TestIncrementalOlderStampRefreshes(t *testing.T) {
	const n, window = 8, 10
	stream := tickStream(t, n, window+4, 107)
	is := newIncShadow(t, window, StreamOptions{
		Cluster:      Options{Method: CompleteLinkage, Workers: 1},
		RebuildEvery: 1 << 20,
		Incremental:  IncrementalOptions{Enabled: true, MaxStale: -1, DriftThreshold: 2},
	})
	defer is.Close()
	for _, x := range stream {
		is.push(t, x)
	}
	is.check(t, "refresh", 2)
	st := is.inc
	st.mu.RLock()
	sim := &Matrix{N: n, Data: make([]float64, n*n)}
	sums := make([]float64, n)
	count, err := st.eng.CopyState(sim.Data, sums)
	gen := st.eng.Generation()
	st.mu.RUnlock()
	if err != nil {
		t.Fatal(err)
	}
	before, _ := st.IncrementalStats()
	r, err := st.incSnapshot(context.Background(), nil, sim, sums, count, gen-1, false)
	if err != nil {
		t.Fatal(err)
	}
	after, _ := st.IncrementalStats()
	if r.TicksSinceExact != 0 || r.Drift != 0 {
		t.Fatalf("older stamp served stale=%d drift=%v", r.TicksSinceExact, r.Drift)
	}
	if after.FullBoundary != before.FullBoundary+1 || after.Hits != before.Hits {
		t.Fatalf("older stamp counted as %+v, was %+v", after, before)
	}
	sameResult(t, "older-stamp", r, is.byGen[gen], 2)
}

// FuzzIncrementalCluster is the incremental-vs-exact oracle as a fuzz
// target: arbitrary push sequences, window shapes, and gate parameters must
// keep every incremental snapshot bit-identical to the exact clustering of
// its reference generation (via the shadow streamer), with drift and
// staleness inside the documented bounds. Any divergence is a crasher.
func FuzzIncrementalCluster(f *testing.F) {
	f.Add(uint8(8), uint8(6), uint8(0), uint8(3), []byte("seed-a"))
	f.Add(uint8(4), uint8(4), uint8(1), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add(uint8(2), uint8(5), uint8(2), uint8(8), []byte{0xff, 0x00, 0x80, 0x7f})
	f.Add(uint8(12), uint8(10), uint8(0), uint8(2), []byte("golden-ish-run"))
	f.Add(uint8(5), uint8(3), uint8(1), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, windowRaw, methodRaw, gateRaw uint8, data []byte) {
		method := []Method{TMFGDBHT, CompleteLinkage, AverageLinkage}[int(methodRaw)%3]
		n := method.MinSeries() + int(nRaw)%9
		window := 3 + int(windowRaw)%10
		eps := []float64{-1, 0, 0.005, 0.05, 1}[int(gateRaw)%5]
		maxStale := -1 + int(gateRaw>>3)%6 // -1 (off) .. 4
		rebuildEvery := 1 + int(gateRaw)%7
		is := newIncShadow(t, window, StreamOptions{
			Cluster:      Options{Method: method, Prefix: 1 + int(methodRaw)%3, Workers: 1},
			RebuildEvery: rebuildEvery,
			Incremental: IncrementalOptions{
				Enabled:        true,
				DriftThreshold: eps,
				MaxStale:       maxStale,
			},
		})
		defer is.Close()
		ticks := 2*window + 8
		pos := 0
		next := func() float64 {
			if len(data) == 0 {
				pos++
				return float64((pos*37)%61) / 8
			}
			b := data[pos%len(data)]
			pos++
			// Small finite values; repeats produce constant (zero-variance)
			// series on purpose.
			return float64(int8(b)) / 16
		}
		x := make([]float64, n)
		for k := 0; k < ticks; k++ {
			for i := range x {
				x[i] = next()
			}
			is.push(t, x)
			is.check(t, fmt.Sprintf("tick-%d", k+1), 2)
		}
	})
}

var _ = math.Inf // keep math imported for future contract tightening
