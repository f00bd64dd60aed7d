package pfg

// Incremental serving benchmarks, the numbers recorded in BENCH_incr.json:
// the drift-bounded incremental tick (Push + Snapshot served from the
// reference clustering while δ ≤ ε) against the exact tick (every Snapshot
// re-clusters the window) it amortizes. Per case the two sides run
// back-to-back on the same pregenerated window content:
//
//	go test -bench 'BenchmarkStreamTickIncremental' -benchmem -run '^$' .
//
// Both sides keep the periodic exact rebuild inside the measured loop
// (RebuildEvery=256 slides), and the incremental side additionally pays its
// own gate-forced exact re-clusterings (staleness at MaxStale=64, drift at
// the default ε=0.02), so its ns/op is the honest amortized serving cost,
// not the pure hit cost.

import (
	"context"
	"fmt"
	"testing"
)

// benchIncrRebuildEvery puts periodic exact rebuilds inside the measured
// loop: every 256 slides the engine recomputes the moments exactly and the
// incremental layer's next snapshot re-clusters from scratch (an engine-
// exact boundary always forces a full), on top of the incremental layer's
// own staleness gate firing every MaxStale=64 snapshots.
const benchIncrRebuildEvery = 256

// benchStreamSteadyState fills the window, takes one warm-up snapshot, then
// measures b.N steady-state ticks (Push + Snapshot).
func benchStreamSteadyState(b *testing.B, st *Streamer, ticks [][]float64) {
	b.Helper()
	for _, x := range ticks {
		if err := st.Push(x); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := st.Snapshot(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.Push(ticks[i%len(ticks)]); err != nil {
			b.Fatal(err)
		}
		if _, err := st.Snapshot(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamTickIncremental measures, per window shape, the exact and
// the incremental serving tick interleaved (the incremental layer runs with
// its production defaults: ε=0.02, MaxStale=64).
// Workers:1 keeps both sides deterministic and single-threaded.
func BenchmarkStreamTickIncremental(b *testing.B) {
	for _, tc := range streamBenchCases {
		b.Run(fmt.Sprintf("%v/n=%d/W=%d", tc.method, tc.n, benchStreamWindow), func(b *testing.B) {
			ticks := benchTicks(tc.n)
			for _, side := range []struct {
				name string
				inc  IncrementalOptions
			}{
				{"exact", IncrementalOptions{}},
				{"incremental", IncrementalOptions{Enabled: true}},
			} {
				b.Run(side.name, func(b *testing.B) {
					st, err := NewStreamer(benchStreamWindow, StreamOptions{
						Cluster:      Options{Method: tc.method, Prefix: 10, Workers: 1},
						RebuildEvery: benchIncrRebuildEvery,
						Incremental:  side.inc,
					})
					if err != nil {
						b.Fatal(err)
					}
					defer st.Close()
					benchStreamSteadyState(b, st, ticks)
				})
			}
		})
	}
}
