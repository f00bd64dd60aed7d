// Package serve is the multi-session HTTP serving layer over pfg's
// streaming engine: the machinery behind the pfg-serve binary.
//
// A server hosts many named sessions, each wrapping a pfg.Streamer with its
// own window/method/rebuild configuration. Ticks arrive via
// POST /v1/sessions/{id}/push (single or batched); clusterings are read via
// GET /v1/sessions/{id}/snapshot. The expensive artifact per session is the
// clustering Snapshot of a slowly-evolving window — many readers, one
// writer, generation-stamped state — so snapshot reads go through a
// generation-keyed cache with singleflight coalescing (see cache.go):
// concurrent readers of one window state share a single clustering run, and
// pushes invalidate by bumping the generation. Admission control bounds the
// number of clustering runs in flight across all sessions; beyond the bound,
// readers that cannot coalesce get 429 + Retry-After instead of queueing
// without bound.
//
// On top of the pull path sits push-based delivery (see broadcast.go):
// snapshot GETs accept an If-Generation precondition (header or
// ?if_generation=) answered with a free 304 while the window is unchanged —
// optionally parking up to ?wait= for the next generation (long-poll) — and
// GET /v1/sessions/{id}/events serves a Server-Sent Events stream where one
// generation bump costs one clustering run and one encode regardless of
// subscriber count, with consecutive generations sent as sparse deltas
// (pfg.ResultDeltaJSON) whenever that is smaller than the full body.
//
// Endpoints:
//
//	POST   /v1/sessions                 create a session
//	GET    /v1/sessions                 list sessions
//	GET    /v1/sessions/{id}            one session's state
//	DELETE /v1/sessions/{id}            delete (closes the streamer)
//	POST   /v1/sessions/{id}/push       ingest ticks  {"sample":[...]} or {"samples":[[...],...]}
//	GET    /v1/sessions/{id}/snapshot   cluster the window  ?k=8 or ?k=2,8 for flat cuts;
//	                                    If-Generation / ?if_generation= + ?wait= for conditional reads
//	GET    /v1/sessions/{id}/events     SSE subscription: snapshot/delta/dropped/bye events
//	GET    /healthz                     liveness
//	GET    /statsz                      counters, latencies, histogram digests, per-session state
//	GET    /metricsz                    Prometheus text exposition of the same (internal/obs)
//	GET    /driftz                      structure drift between consecutive clusterings (drift.go)
//
// Shutdown order for embedders: call Server.Drain (ends event streams and
// parked long-polls — otherwise Shutdown waits on them forever), then stop
// the listener with http.Server.Shutdown (drains in-flight requests,
// including coalesced snapshot waits), then call Server.Close to cancel any
// still-running clustering computations and close every session. pfg-serve
// wires exactly that sequence to SIGINT/SIGTERM.
package serve

import (
	"context"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pfg/internal/ckpt"
	"pfg/internal/obs"
)

// snapSampleEvery is the snapshot-request latency sampling period: 1 in
// this many requests pays the two clock reads that feed
// pfg_snapshot_request_ns (power of two; the sample test is one mask). See
// handleSnapshot for the budget arithmetic.
const snapSampleEvery = 8

// Options configures a Server.
type Options struct {
	// MaxInflight bounds the number of snapshot clustering runs in flight
	// across all sessions (0 = GOMAXPROCS). Requests that cannot be served
	// from cache or coalesced onto a running computation are rejected with
	// 429 once the bound is reached — clustering is CPU-bound, so queueing
	// past the core count only grows tail latency.
	MaxInflight int
	// MaxBodyBytes caps a request body (0 = 8 MiB). A tick batch for n
	// series costs ~20 bytes per value on the wire, so the default admits
	// batches of hundreds of ticks at n=512.
	MaxBodyBytes int64

	// StateDir enables session durability: every session checkpoints its
	// full window state under <StateDir>/<id>/ and logs admitted pushes to
	// a write-ahead log between checkpoints (see durable.go for the
	// protocol). Server.Recover restores the sessions at boot;
	// Server.CheckpointAll takes the final checkpoints at drain. Empty
	// (the default) disables durability entirely.
	StateDir string
	// CheckpointEvery is the checkpoint cadence in admitted pushes per
	// session (0 = 64). Between checkpoints a crash loses nothing — the
	// WAL suffix replays — so the knob trades checkpoint I/O volume
	// against recovery replay time, not against durability.
	CheckpointEvery int
	// Fsync is the WAL durability policy: ckpt.SyncBatch (default, fsync
	// once per HTTP push batch), ckpt.SyncAlways (per frame), or
	// ckpt.SyncNone (leave it to the OS).
	Fsync ckpt.SyncPolicy

	// LogSlowTick, when positive, logs a one-line per-stage breakdown for
	// any push batch or clustering run slower than the threshold (the
	// -log-slow-tick flag of pfg-serve).
	LogSlowTick time.Duration
}

// Server is the serving state: the session registry, the admission
// semaphore, and the metrics registry. Create with New, expose via Handler,
// and Close after the HTTP listener has drained.
type Server struct {
	opts    Options
	reg     *Registry
	sem     chan struct{} // admission: one slot per in-flight clustering run
	baseCtx context.Context
	cancel  context.CancelFunc
	start   time.Time

	// obs is the metrics registry behind /metricsz, and ins its counters
	// and histograms, which /statsz reads too. snapSeq sequences snapshot
	// requests for the 1-in-snapSampleEvery latency sampling (see
	// handleSnapshot).
	obs     *obs.Registry
	ins     instruments
	snapSeq atomic.Uint64

	// drainCh is closed by Drain: event streams end with a "bye" frame and
	// parked long-polls return, so http.Server.Shutdown (which waits for
	// in-flight requests, and an SSE stream is one endless in-flight
	// request) can complete.
	drainCh   chan struct{}
	drainOnce sync.Once
}

// New creates a Server.
func New(opts Options) *Server {
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 8 << 20
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		reg:     newRegistry(),
		sem:     make(chan struct{}, opts.MaxInflight),
		baseCtx: ctx,
		cancel:  cancel,
		start:   time.Now(),
		drainCh: make(chan struct{}),
		obs:     obs.NewRegistry(),
	}
	s.ins = newInstruments(s.obs)
	s.registerGaugeFuncs()
	return s
}

// Handler returns the server's HTTP routing table, fronted by a fast path
// for the hottest request in a re-poll storm: a header-conditional snapshot
// GET whose generation still matches is answered 304 before the router's
// path parsing (see tryNotModifiedFast). Every other request — including
// every conditional read that must serve a body — takes the routed path.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	mux.HandleFunc("GET /driftz", s.handleDriftz)
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", s.handleList)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleGetSession)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDelete)
	mux.HandleFunc("POST /v1/sessions/{id}/push", s.handlePush)
	mux.HandleFunc("GET /v1/sessions/{id}/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /v1/sessions/{id}/events", s.handleEvents)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.tryNotModifiedFast(w, r) {
			return
		}
		mux.ServeHTTP(w, r)
	})
}

// Drain ends the server's open push-delivery work: every SSE event stream
// closes with a terminal "bye" frame and every parked long-poll returns
// 304, so a subsequent http.Server.Shutdown — which waits for in-flight
// requests, and an event stream is one endless in-flight request — can
// complete. New event subscriptions are refused with 503 once draining.
// Idempotent; Close calls it implicitly.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drainCh) })
}

// Close cancels in-flight clustering computations and closes every session.
// Call it after the HTTP listener has drained (Drain, then
// http.Server.Shutdown); requests arriving afterwards are refused cleanly
// (sessions report pfg.ErrClosed → 410, creates fail).
func (s *Server) Close() {
	s.Drain()
	s.cancel()
	s.reg.closeAll()
}
