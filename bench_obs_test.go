package pfg_test

// Observability overhead benchmarks (BENCH_obs.json): the acceptance gate of
// the obs layer — instrumentation must cost zero extra allocations and stay
// within a few percent ns/op on the two hottest paths, steady-state
// Streamer.Push and the cached snapshot GET. The push pair (registry-backed
// stages vs nil metrics) runs inside one process invocation so the
// comparison shares a measurement window. The server is always
// instrumented, so the cached GET has no in-process baseline: compare
// cached-get/instrumented across commits, interleaving repetitions with
// -count:
//
//	go test -bench BenchmarkObsOverhead -benchmem -run '^$' -count 3 .
//
// Lives in package pfg_test for the same reason as bench_serve_test.go:
// internal/serve imports pfg, so an in-package benchmark importing serve
// would be an import cycle.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pfg"
	"pfg/internal/obs"
	"pfg/internal/serve"
)

// newObsSession is newServeSession on a complete-linkage session, which
// keeps setup (the one warm clustering run) cheap; the measured path is the
// cache hit, which is method-independent.
func newObsSession(tb testing.TB, window int, bodies [][]byte) http.Handler {
	tb.Helper()
	srv := serve.New(serve.Options{})
	tb.Cleanup(srv.Close)
	h := srv.Handler()
	create, err := json.Marshal(map[string]any{
		"id": "bench", "window": window, "method": "complete-linkage", "rebuild_every": -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	if rec := serveReq(tb, h, "POST", "/v1/sessions", create); rec.Code != http.StatusCreated {
		tb.Fatalf("create: %d %s", rec.Code, rec.Body)
	}
	for _, body := range bodies[:window] {
		if rec := serveReq(tb, h, "POST", "/v1/sessions/bench/push", body); rec.Code != http.StatusOK {
			tb.Fatalf("push: %d %s", rec.Code, rec.Body)
		}
	}
	return h
}

func BenchmarkObsOverhead(b *testing.B) {
	const (
		n      = 512
		window = 64
	)
	ticks, bodies := benchTicks(b, n, 2*window)

	// Cached snapshot GET through the full handler stack: latency sampling
	// adds one sequence increment per request, plus two clock reads and one
	// histogram observe on every eighth.
	b.Run("cached-get/instrumented", func(b *testing.B) {
		h := newObsSession(b, window, bodies)
		if rec := serveReq(b, h, "GET", "/v1/sessions/bench/snapshot?k=8", nil); rec.Code != http.StatusOK {
			b.Fatalf("warm snapshot: %d %s", rec.Code, rec.Body)
		}
		req := httptest.NewRequest("GET", "/v1/sessions/bench/snapshot?k=8", nil)
		sink := newStatusSink()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink.reset()
			h.ServeHTTP(sink, req)
			if sink.code != http.StatusOK {
				b.Fatalf("cached GET: %d", sink.code)
			}
		}
	})

	// Steady-state Push into a full window: registry-backed stages (what the
	// serving layer attaches) vs no metrics at all, where the engine never
	// reads the clock.
	for _, mode := range []struct {
		name string
		inst bool
	}{
		{"instrumented", true},
		{"uninstrumented", false},
	} {
		b.Run("push/"+mode.name, func(b *testing.B) {
			st, err := pfg.NewStreamer(window, pfg.StreamOptions{
				Cluster:      pfg.Options{Method: pfg.CompleteLinkage},
				RebuildEvery: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			if mode.inst {
				reg := obs.NewRegistry()
				st.SetMetrics(&pfg.StreamerMetrics{
					PushAdmit: obs.NewStage(reg.Histogram("bench_tick_stage_ns", "per-tick stage wall time", "stage", "admit")),
					PushRoll:  obs.NewStage(reg.Histogram("bench_tick_stage_ns", "per-tick stage wall time", "stage", "roll")),
					Rebuild:   obs.NewStage(reg.Histogram("bench_tick_stage_ns", "per-tick stage wall time", "stage", "rebuild")),
				})
			}
			for _, x := range ticks[:window] {
				if err := st.Push(x); err != nil {
					b.Fatal(err)
				}
			}
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
