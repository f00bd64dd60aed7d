package serve

import (
	"sync/atomic"

	"pfg"
	"pfg/internal/obs"
)

// Stats is the server's monotonic counter set, updated with atomics on the
// request paths and reported by GET /statsz. Latency totals pair with their
// counters so readers can derive means without a lock; the latency and size
// distributions behind those same choke points live in the observability
// registry (internal/obs, see obs.go) and surface as the /statsz histograms
// field and the /metricsz exposition, which mirrors every counter here via
// read-at-scrape callbacks so nothing is double-counted on the hot path.
type Stats struct {
	SessionsCreated atomic.Uint64
	SessionsDeleted atomic.Uint64

	TicksPushed  atomic.Uint64 // admitted ticks
	PushRejected atomic.Uint64 // ticks examined and refused by validation (a batch's aborted remainder is not counted)
	PushNanos    atomic.Int64  // total wall time inside Streamer.Push

	SnapshotRequests  atomic.Uint64 // snapshot requests admitted past routing
	SnapshotHits      atomic.Uint64 // served straight from the generation cache
	SnapshotCoalesced atomic.Uint64 // joined an in-flight clustering run
	SnapshotRuns      atomic.Uint64 // clustering runs actually launched
	SnapshotErrors    atomic.Uint64 // runs or waits that ended in an error
	SnapshotRejected  atomic.Uint64 // 429s from admission control
	SnapshotRunNanos  atomic.Int64  // total wall time of clustering runs
	SnapshotEncodes   atomic.Uint64 // full response bodies actually marshaled (misses of the body cache)

	// Push-delivery counters: conditional reads, long-polls, and the SSE
	// subscription fan-out.
	ConditionalRequests atomic.Uint64 // snapshot GETs carrying If-Generation
	NotModified         atomic.Uint64 // free 304s (generation unchanged)
	LongPollWaits       atomic.Uint64 // requests that parked on the generation watch
	LongPollTimeouts    atomic.Uint64 // parked requests that timed out into a 304

	Subscribers        atomic.Int64  // current SSE subscribers (gauge)
	SubscribeRejected  atomic.Uint64 // subscriptions refused by the subscriber ceilings
	EventsDelta        atomic.Uint64 // delta events delivered
	EventsFull         atomic.Uint64 // full snapshot events delivered
	EventsDropped      atomic.Uint64 // updates discarded by slow-subscriber drop-to-latest
	EventBytes         atomic.Uint64 // bytes written to event streams
	EventBytesSaved    atomic.Uint64 // Σ (full frame − sent frame) over delta deliveries
	DeltaFallbackFulls atomic.Uint64 // deliveries that wanted a delta but fell back to full

	// Durability counters (all zero when the server runs without a
	// StateDir).
	Checkpoints       atomic.Uint64 // checkpoints written (initial, periodic, and drain)
	CheckpointBytes   atomic.Uint64 // total checkpoint bytes written
	CheckpointNanos   atomic.Int64  // total wall time inside checkpoint writes
	WALFrames         atomic.Uint64 // push frames appended to WAL segments
	WALBytes          atomic.Uint64 // bytes appended to WAL segments
	RecoveredSessions atomic.Uint64 // sessions restored by Recover at boot
	ReplayedFrames    atomic.Uint64 // WAL frames replayed into recovered engines
	TornTruncations   atomic.Uint64 // torn tails dropped: WAL tears + unusable checkpoints skipped
	DurabilityErrors  atomic.Uint64 // disk failures that disabled a session's durability or skipped a recovery
}

// StatsSnapshot is the wire form of GET /statsz: the counter values at one
// instant plus derived means, histogram digests, and the per-session states.
// Field groups, in order: process metadata (kernel_isa), session lifecycle
// counts, the push path (admitted/rejected ticks and mean per-tick latency),
// the snapshot path (request outcomes by cache disposition, run/encode
// counts, mean run latency), conditional reads and long-polls, SSE delivery
// (subscriber gauge, event/byte/drop counts, the delta hit ratio), the
// durability pipeline (checkpoint/WAL volume, recovery outcomes, failure
// counts), the incremental serving-layer totals, the histogram digests, and
// per-session infos. Additions to this struct are backward-compatible wire
// changes; removals and renames are not allowed.
type StatsSnapshot struct {
	// KernelISA is the compute-kernel backend this process selected at init
	// ("avx2" or "scalar") — operational metadata, not a correctness signal:
	// both backends are bit-identical in float64.
	KernelISA string `json:"kernel_isa"`

	Sessions        int    `json:"sessions"`
	SessionsCreated uint64 `json:"sessions_created"`
	SessionsDeleted uint64 `json:"sessions_deleted"`

	TicksPushed  uint64  `json:"ticks_pushed"`
	PushRejected uint64  `json:"push_rejected"`
	PushMeanUs   float64 `json:"push_mean_us"`

	SnapshotRequests  uint64  `json:"snapshot_requests"`
	SnapshotHits      uint64  `json:"snapshot_hits"`
	SnapshotCoalesced uint64  `json:"snapshot_coalesced"`
	SnapshotRuns      uint64  `json:"snapshot_runs"`
	SnapshotErrors    uint64  `json:"snapshot_errors"`
	SnapshotRejected  uint64  `json:"snapshot_rejected"`
	SnapshotRunMeanMs float64 `json:"snapshot_run_mean_ms"`
	SnapshotEncodes   uint64  `json:"snapshot_encodes"`

	ConditionalRequests uint64 `json:"conditional_requests"`
	NotModified         uint64 `json:"not_modified"`
	LongPollWaits       uint64 `json:"long_poll_waits"`
	LongPollTimeouts    uint64 `json:"long_poll_timeouts"`

	Subscribers        int64   `json:"subscribers"`
	SubscribeRejected  uint64  `json:"subscribe_rejected"`
	EventsDelta        uint64  `json:"events_delta"`
	EventsFull         uint64  `json:"events_full"`
	EventsDropped      uint64  `json:"events_dropped"`
	EventBytes         uint64  `json:"event_bytes"`
	EventBytesSaved    uint64  `json:"event_bytes_saved"`
	DeltaFallbackFulls uint64  `json:"delta_fallback_fulls"`
	DeltaRatio         float64 `json:"delta_ratio"` // delta events / all delivered events

	// Durability: checkpoint/WAL volume, recovery outcomes, and failure
	// counts (all zero without a -state-dir).
	Checkpoints       uint64  `json:"checkpoints"`
	CheckpointBytes   uint64  `json:"checkpoint_bytes"`
	CheckpointMeanMs  float64 `json:"checkpoint_mean_ms"`
	WALFrames         uint64  `json:"wal_frames"`
	WALBytes          uint64  `json:"wal_bytes"`
	RecoveredSessions uint64  `json:"recovered_sessions"`
	ReplayedFrames    uint64  `json:"wal_replayed_frames"`
	TornTruncations   uint64  `json:"wal_torn_truncations"`
	DurabilityErrors  uint64  `json:"durability_errors"`

	// Incremental serving-layer totals, summed over live incremental
	// sessions at read time (a deleted session's history leaves the totals):
	// snapshots served from a still-valid reference clustering vs. exact
	// rebuilds, with the rebuilds broken down by which gate forced them.
	IncrementalHits          uint64 `json:"incremental_hits"`
	IncrementalFulls         uint64 `json:"incremental_fulls"`
	IncrementalFullsDrift    uint64 `json:"incremental_fulls_drift"`
	IncrementalFullsStale    uint64 `json:"incremental_fulls_stale"`
	IncrementalFullsBoundary uint64 `json:"incremental_fulls_boundary"`
	// Always 0, kept only because /statsz never drops a published field.
	IncrementalFullsRepair uint64 `json:"incremental_fulls_repair"`
	IncrementalRepairs     uint64 `json:"incremental_repairs"`

	// Histograms digests every server histogram (count/mean/p50/p95/p99;
	// quantiles are log2-bucket estimates, see internal/obs). Keys:
	// push_batch_ns, tick_{admit,roll,rebuild}_ns,
	// snapshot_{hit,coalesced,miss}_ns, snapshot_run_ns,
	// snapshot_{finish,cluster}_ns, inc_{drift,refresh}_ns,
	// checkpoint_write_ns, checkpoint_write_bytes, wal_frame_bytes,
	// subscriber_queue_depth, drift_ari_distance_micros, drift_edge_churn.
	// Omitted when the server runs with metrics off.
	Histograms map[string]obs.Summary `json:"histograms,omitempty"`

	SessionInfos []SessionInfo `json:"session_infos"`
}

// view reads the counters (each atomically; the set is not one atomic
// snapshot, which is fine for monitoring) and derives the means.
func (st *Stats) view() StatsSnapshot {
	v := StatsSnapshot{
		KernelISA:         pfg.KernelISA(),
		SessionsCreated:   st.SessionsCreated.Load(),
		SessionsDeleted:   st.SessionsDeleted.Load(),
		TicksPushed:       st.TicksPushed.Load(),
		PushRejected:      st.PushRejected.Load(),
		SnapshotRequests:  st.SnapshotRequests.Load(),
		SnapshotHits:      st.SnapshotHits.Load(),
		SnapshotCoalesced: st.SnapshotCoalesced.Load(),
		SnapshotRuns:      st.SnapshotRuns.Load(),
		SnapshotErrors:    st.SnapshotErrors.Load(),
		SnapshotRejected:  st.SnapshotRejected.Load(),
		SnapshotEncodes:   st.SnapshotEncodes.Load(),

		ConditionalRequests: st.ConditionalRequests.Load(),
		NotModified:         st.NotModified.Load(),
		LongPollWaits:       st.LongPollWaits.Load(),
		LongPollTimeouts:    st.LongPollTimeouts.Load(),

		Subscribers:        st.Subscribers.Load(),
		SubscribeRejected:  st.SubscribeRejected.Load(),
		EventsDelta:        st.EventsDelta.Load(),
		EventsFull:         st.EventsFull.Load(),
		EventsDropped:      st.EventsDropped.Load(),
		EventBytes:         st.EventBytes.Load(),
		EventBytesSaved:    st.EventBytesSaved.Load(),
		DeltaFallbackFulls: st.DeltaFallbackFulls.Load(),

		Checkpoints:       st.Checkpoints.Load(),
		CheckpointBytes:   st.CheckpointBytes.Load(),
		WALFrames:         st.WALFrames.Load(),
		WALBytes:          st.WALBytes.Load(),
		RecoveredSessions: st.RecoveredSessions.Load(),
		ReplayedFrames:    st.ReplayedFrames.Load(),
		TornTruncations:   st.TornTruncations.Load(),
		DurabilityErrors:  st.DurabilityErrors.Load(),
	}
	if v.TicksPushed > 0 {
		v.PushMeanUs = float64(st.PushNanos.Load()) / float64(v.TicksPushed) / 1e3
	}
	if v.SnapshotRuns > 0 {
		v.SnapshotRunMeanMs = float64(st.SnapshotRunNanos.Load()) / float64(v.SnapshotRuns) / 1e6
	}
	if delivered := v.EventsDelta + v.EventsFull; delivered > 0 {
		v.DeltaRatio = float64(v.EventsDelta) / float64(delivered)
	}
	if v.Checkpoints > 0 {
		v.CheckpointMeanMs = float64(st.CheckpointNanos.Load()) / float64(v.Checkpoints) / 1e6
	}
	return v
}
