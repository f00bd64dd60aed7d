package pfg

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"pfg/internal/obs"
	"pfg/internal/tsgen"
)

// tickStream transposes a tsgen dataset into per-tick samples: tick t holds
// one observation per series.
func tickStream(tb testing.TB, n, count int, seed int64) [][]float64 {
	tb.Helper()
	ds := tsgen.GenerateClassed("stream", n, count, 3, 0.5, seed)
	out := make([][]float64, count)
	for k := range out {
		x := make([]float64, n)
		for i := range x {
			x[i] = ds.Series[i][k]
		}
		out[k] = x
	}
	return out
}

// windowSeries reconstructs the batch-equivalent input for the streamer's
// current window: the last min(pushed, window) ticks, one row per series.
func windowSeries(stream [][]float64, pushed, window, n int) [][]float64 {
	lo := pushed - window
	if lo < 0 {
		lo = 0
	}
	series := make([][]float64, n)
	for i := range series {
		row := make([]float64, pushed-lo)
		for k := lo; k < pushed; k++ {
			row[k-lo] = stream[k][i]
		}
		series[i] = row
	}
	return series
}

// sameResult asserts two results are bit-identical through the public
// surface: cut labels, Newick serialization (which embeds every merge and
// height), the filtered graph's edge list, the edge weight sum, and the
// group count.
func sameResult(t *testing.T, tag string, got, want *Result, k int) {
	t.Helper()
	gl, err := got.Cut(k)
	if err != nil {
		t.Fatalf("%s: cut got: %v", tag, err)
	}
	wl, err := want.Cut(k)
	if err != nil {
		t.Fatalf("%s: cut want: %v", tag, err)
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Fatalf("%s: label[%d] = %d, want %d", tag, i, gl[i], wl[i])
		}
	}
	gn, err := got.Newick(nil)
	if err != nil {
		t.Fatal(err)
	}
	wn, err := want.Newick(nil)
	if err != nil {
		t.Fatal(err)
	}
	if gn != wn {
		t.Fatalf("%s: newick differs:\ngot  %s\nwant %s", tag, gn, wn)
	}
	if !slices.Equal(got.Edges, want.Edges) {
		t.Fatalf("%s: filtered-graph edges differ:\ngot  %v\nwant %v", tag, got.Edges, want.Edges)
	}
	if math.Float64bits(got.EdgeWeightSum) != math.Float64bits(want.EdgeWeightSum) {
		t.Fatalf("%s: EdgeWeightSum %v != %v", tag, got.EdgeWeightSum, want.EdgeWeightSum)
	}
	if got.Groups != want.Groups {
		t.Fatalf("%s: Groups %d != %d", tag, got.Groups, want.Groups)
	}
}

// TestStreamerMatchesBatch is the streaming equivalence property: W pushes
// followed by Snapshot is bit-identical (Workers:1) to batch Cluster on the
// same window, for every method, and the identity survives — and is restored
// by — drift rebuilds (both the periodic every-K rebuild and a forced one).
func TestStreamerMatchesBatch(t *testing.T) {
	const n, window, K, k = 12, 24, 8, 3
	stream := tickStream(t, n, window+2*K+3, 31)
	for _, m := range []Method{TMFGDBHT, PMFGDBHT, CompleteLinkage, AverageLinkage} {
		t.Run(m.String(), func(t *testing.T) {
			opts := Options{Method: m, Prefix: 2, Workers: 1}
			st, err := NewStreamer(window, StreamOptions{Cluster: opts, RebuildEvery: K})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ctx := context.Background()
			check := func(tag string, pushed int) {
				t.Helper()
				snap, err := st.Snapshot(ctx)
				if err != nil {
					t.Fatalf("%s: snapshot: %v", tag, err)
				}
				batch, err := Cluster(windowSeries(stream, pushed, window, n), opts)
				if err != nil {
					t.Fatalf("%s: batch: %v", tag, err)
				}
				sameResult(t, tag, snap, batch, k)
			}
			for p, x := range stream {
				if err := st.Push(x); err != nil {
					t.Fatal(err)
				}
				pushed := p + 1
				switch {
				case pushed == window:
					// Full fill, no slide yet: exact by construction.
					check("fill", pushed)
				case pushed == window+K:
					// The K-th slide just triggered the periodic rebuild
					// inside Push — the drift boundary the identity must
					// survive.
					if !st.Exact() {
						t.Fatalf("tick %d: periodic rebuild did not run", pushed)
					}
					check("periodic-rebuild", pushed)
				case pushed == window+K+3:
					// Mid-drift: force a rebuild, then the identity holds.
					if st.Exact() {
						t.Fatalf("tick %d: expected drifted state", pushed)
					}
					if err := st.Rebuild(); err != nil {
						t.Fatal(err)
					}
					check("forced-rebuild", pushed)
				}
			}
		})
	}
}

// TestStreamerPartialWindow: snapshots are available (and batch-identical)
// before the window fills, as soon as two samples are in.
func TestStreamerPartialWindow(t *testing.T) {
	const n, window = 8, 16
	stream := tickStream(t, n, 8, 7)
	opts := Options{Method: CompleteLinkage, Workers: 1}
	st, err := NewStreamer(window, StreamOptions{Cluster: opts})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Snapshot(context.Background()); err == nil {
		t.Fatal("snapshot of empty window accepted")
	}
	if err := st.Push(stream[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Snapshot(context.Background()); err == nil {
		t.Fatal("snapshot of 1-sample window accepted")
	}
	for p := 1; p < len(stream); p++ {
		if err := st.Push(stream[p]); err != nil {
			t.Fatal(err)
		}
		snap, err := st.Snapshot(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		batch, err := Cluster(windowSeries(stream, p+1, window, n), opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "partial", snap, batch, 2)
	}
}

// fullStreamer returns a streamer holding a full window of ticks.
func fullStreamer(tb testing.TB, ticks [][]float64, window int, opts StreamOptions) *Streamer {
	tb.Helper()
	st, err := NewStreamer(window, opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(st.Close)
	for _, x := range ticks[:window] {
		if err := st.Push(x); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// pushOptions keeps every steady-state Push the same O(n²) roll: one
// worker, no periodic rebuilds.
var pushOptions = StreamOptions{Cluster: Options{Method: CompleteLinkage, Workers: 1}, RebuildEvery: -1}

// pushStages returns registry-backed push stages, as the serving layer
// installs them.
func pushStages() *StreamerMetrics {
	reg := obs.NewRegistry()
	stage := func(name string) *obs.Stage {
		return obs.NewStage(reg.Histogram("pfg_tick_stage_ns", "per-tick stage wall time", "stage", name))
	}
	return &StreamerMetrics{PushAdmit: stage("admit"), PushRoll: stage("roll"), Rebuild: stage("rebuild")}
}

// TestPushAllocs pins steady-state Push at Workers:1 to two allocations —
// the next generation's watch channel and one worker-pool closure — and
// pins that installing stage metrics adds none.
func TestPushAllocs(t *testing.T) {
	const n, window = 32, 16
	ticks := tickStream(t, n, 2*window, 3)
	var got [2]float64
	for i, met := range []*StreamerMetrics{nil, pushStages()} {
		st := fullStreamer(t, ticks, window, pushOptions)
		st.SetMetrics(met)
		k := 0
		got[i] = testing.AllocsPerRun(64, func() {
			if err := st.Push(ticks[window+k%window]); err != nil {
				t.Fatal(err)
			}
			k++
		})
	}
	if got[0] != got[1] {
		t.Errorf("Push allocates %v with stage metrics, %v without", got[1], got[0])
	}
	if got[0] != 2 {
		t.Errorf("Push allocates %v per call, want 2", got[0])
	}
}

// BenchmarkPushMetrics is the one instrumented-vs-uninstrumented pair the
// code still has: steady-state Push with registry-backed stages against nil
// metrics. README ("Observability") says how to run it for the ≤5% bar.
func BenchmarkPushMetrics(b *testing.B) {
	const n, window = 512, 64
	ticks := tickStream(b, n, 2*window, 42)
	for _, side := range []struct {
		name string
		met  *StreamerMetrics
	}{{"instrumented", pushStages()}, {"nil-metrics", nil}} {
		b.Run(side.name, func(b *testing.B) {
			st := fullStreamer(b, ticks, window, pushOptions)
			st.SetMetrics(side.met)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := st.Push(ticks[window+i%window]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTickAllocs pins the allocations of one steady-state serving tick
// (Push + Snapshot at Workers:1) independent of n: an exact complete-linkage
// tick, and an incremental hit, which serves an owned copy of the reference
// clustering. The hit cases disable every gate that could force an exact
// re-cluster, and check that each measured tick was a hit.
func TestTickAllocs(t *testing.T) {
	hit := IncrementalOptions{Enabled: true, DriftThreshold: 4, MaxStale: -1}
	ctx := context.Background()
	for _, c := range []struct {
		name   string
		method Method
		inc    IncrementalOptions
		want   float64
	}{
		{"exact", CompleteLinkage, IncrementalOptions{}, 9},
		{"hit", CompleteLinkage, hit, 6},
		{"hit", TMFGDBHT, hit, 7},
	} {
		for _, n := range []int{32, 128} {
			const window, runs = 16, 16
			ticks := tickStream(t, n, 2*window, 9)
			st := fullStreamer(t, ticks, window, StreamOptions{
				Cluster:      Options{Method: c.method, Workers: 1},
				RebuildEvery: -1,
				Incremental:  c.inc,
			})
			if _, err := st.Snapshot(ctx); err != nil {
				t.Fatal(err)
			}
			k := 0
			got := testing.AllocsPerRun(runs, func() {
				if err := st.Push(ticks[window+k%window]); err != nil {
					t.Fatal(err)
				}
				if _, err := st.Snapshot(ctx); err != nil {
					t.Fatal(err)
				}
				k++
			})
			if stats, on := st.IncrementalStats(); on && (stats.Hits != runs+1 || stats.Fulls != 1) {
				t.Fatalf("%s %v n=%d: %d hits and %d fulls, want %d hits after one full", c.name, c.method, n, stats.Hits, stats.Fulls, runs+1)
			}
			if got != c.want {
				t.Errorf("%s %v n=%d: %v allocs per tick, want %v", c.name, c.method, n, got, c.want)
			}
		}
	}
}

// TestStreamerConcurrentPushSnapshot exercises the concurrency contract
// under the race detector: one pusher, several snapshotters, plus forced
// rebuilds, all in flight at once. The incremental case also holds every
// snapshot to the serving contract: a snapshot whose moments were copied
// before another snapshot refreshed the reference at a newer generation
// must not be served that newer reference.
func TestStreamerConcurrentPushSnapshot(t *testing.T) {
	for _, c := range []struct {
		name string
		inc  IncrementalOptions
	}{
		{"exact", IncrementalOptions{}},
		{"incremental", IncrementalOptions{Enabled: true, DriftThreshold: 1, MaxStale: 4}},
	} {
		t.Run(c.name, func(t *testing.T) { concurrentPushSnapshot(t, c.inc) })
	}
}

func concurrentPushSnapshot(t *testing.T, inc IncrementalOptions) {
	const n, window, ticks = 16, 32, 200
	rng := rand.New(rand.NewSource(77))
	st, err := NewStreamer(window, StreamOptions{
		Cluster:      Options{Method: CompleteLinkage},
		RebuildEvery: 16,
		Incremental:  inc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := st.Snapshot(context.Background())
				if err != nil {
					// The only acceptable error is an under-filled window
					// at the very start.
					if !strings.Contains(err.Error(), "need at least 2") {
						t.Errorf("snapshot: %v", err)
						return
					}
					continue
				}
				if _, err := res.Cut(2); err != nil {
					t.Errorf("cut: %v", err)
					return
				}
				if s := res.TicksSinceExact; s < 0 || (inc.Enabled && s >= inc.MaxStale) || (!inc.Enabled && s != 0) {
					t.Errorf("snapshot served with staleness %d", s)
					return
				}
				if res.Drift > inc.DriftThreshold {
					t.Errorf("snapshot served with drift %v beyond %v", res.Drift, inc.DriftThreshold)
					return
				}
				// The gate counters are read while other snapshots write them.
				if s, on := st.IncrementalStats(); on != inc.Enabled || (on && s.Hits+s.Fulls == 0) {
					t.Errorf("stats %+v (enabled %v) after a served snapshot", s, on)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		x := make([]float64, n)
		for k := 0; k < ticks; k++ {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			if err := st.Push(x); err != nil {
				t.Errorf("push: %v", err)
				return
			}
			if k%50 == 49 {
				if err := st.Rebuild(); err != nil {
					t.Errorf("rebuild: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
}

// TestStreamerValidation pins the public error surface.
func TestStreamerValidation(t *testing.T) {
	if _, err := NewStreamer(1, StreamOptions{}); err == nil {
		t.Fatal("window=1 accepted")
	}
	if _, err := NewStreamer(8, StreamOptions{Cluster: Options{Prefix: -1}}); err == nil {
		t.Fatal("negative Prefix accepted")
	}
	// A checkpoint cannot carry a non-finite drift threshold back in.
	for _, eps := range []float64{math.Inf(1), math.NaN()} {
		_, err := NewStreamer(8, StreamOptions{Incremental: IncrementalOptions{Enabled: true, DriftThreshold: eps}})
		if err == nil || !strings.Contains(err.Error(), "DriftThreshold") {
			t.Fatalf("DriftThreshold %v: got %v, want an error naming it", eps, err)
		}
	}
	st, err := NewStreamer(8, StreamOptions{Cluster: Options{Method: TMFGDBHT, Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Window() != 8 || st.Len() != 0 || !st.Exact() {
		t.Fatal("fresh streamer state")
	}
	// A rejected FIRST push must not fix the series count.
	if err := st.Push([]float64{1, math.Inf(1), 3, 4}); err == nil {
		t.Fatal("non-finite first sample accepted")
	}
	if err := st.Push([]float64{1, 2, 3}); err != nil {
		t.Fatalf("series count was fixed by a rejected push: %v", err)
	}
	if err := st.Push([]float64{1, 2}); err == nil {
		t.Fatal("arity change accepted")
	}
	if err := st.Push([]float64{1, math.NaN(), 3}); err == nil {
		t.Fatal("non-finite sample accepted")
	}
	if err := st.Push([]float64{4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	// TMFG needs ≥ 4 series: the method minimum surfaces at Snapshot.
	if _, err := st.Snapshot(context.Background()); err == nil || !strings.Contains(err.Error(), "tmfg-dbht") {
		t.Fatalf("method minimum not enforced: %v", err)
	}
	st.Close()
	st.Close() // idempotent
	if err := st.Push([]float64{1, 2, 3}); err == nil {
		t.Fatal("push after Close accepted")
	}
	if _, err := st.Snapshot(context.Background()); err == nil {
		t.Fatal("snapshot after Close accepted")
	}
	if err := st.Rebuild(); err == nil {
		t.Fatal("rebuild after Close accepted")
	}
}
