package serve

import (
	"pfg"
	"pfg/internal/obs"
)

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
	// ("avx512", "avx2" or "scalar", see pfg.KernelISA) — operational
	// metadata, not a correctness signal: all backends are bit-identical in
	// float64.
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
	// serve_{encode,structure}_ns, checkpoint_write_ns,
	// checkpoint_write_bytes, wal_frame_bytes, subscriber_queue_depth,
	// drift_ari_distance_micros, drift_edge_churn.
	Histograms map[string]obs.Summary `json:"histograms,omitempty"`

	SessionInfos []SessionInfo `json:"session_infos"`
}

// view reads the counters (each atomically; the set is not one atomic
// snapshot, which is fine for monitoring), derives the means, and digests
// the histograms. Each mean divides the _sum of the histogram that times
// the same interval by its event count: every push batch, admitted or
// not, per admitted tick; every clustering run, failed or not; every
// checkpoint.
func (ins *instruments) view() StatsSnapshot {
	v := StatsSnapshot{
		KernelISA:         pfg.KernelISA(),
		SessionsCreated:   ins.sessionsCreated.Load(),
		SessionsDeleted:   ins.sessionsDeleted.Load(),
		TicksPushed:       ins.ticksPushed.Load(),
		PushRejected:      ins.pushRejected.Load(),
		SnapshotRequests:  ins.snapshotRequests.Load(),
		SnapshotHits:      ins.snapshotHits.Load(),
		SnapshotCoalesced: ins.snapshotCoalesced.Load(),
		SnapshotRuns:      ins.snapshotRuns.Load(),
		SnapshotErrors:    ins.snapshotErrors.Load(),
		SnapshotRejected:  ins.snapshotRejected.Load(),
		SnapshotEncodes:   ins.snapshotEncodes.Load(),

		ConditionalRequests: ins.conditionalRequests.Load(),
		NotModified:         ins.notModified.Load(),
		LongPollWaits:       ins.longPollWaits.Load(),
		LongPollTimeouts:    ins.longPollTimeouts.Load(),

		Subscribers:        ins.subscribers.Load(),
		SubscribeRejected:  ins.subscribeRejected.Load(),
		EventsDelta:        ins.eventsDelta.Load(),
		EventsFull:         ins.eventsFull.Load(),
		EventsDropped:      ins.eventsDropped.Load(),
		EventBytes:         ins.eventBytes.Load(),
		EventBytesSaved:    ins.eventBytesSaved.Load(),
		DeltaFallbackFulls: ins.deltaFallbackFulls.Load(),

		Checkpoints:       ins.checkpoints.Load(),
		CheckpointBytes:   ins.checkpointBytes.Load(),
		WALFrames:         ins.walFrames.Load(),
		WALBytes:          ins.walBytes.Load(),
		RecoveredSessions: ins.recoveredSessions.Load(),
		ReplayedFrames:    ins.replayedFrames.Load(),
		TornTruncations:   ins.tornTruncations.Load(),
		DurabilityErrors:  ins.durabilityErrors.Load(),

		Histograms: ins.summaries(),
	}
	if v.TicksPushed > 0 {
		v.PushMeanUs = float64(ins.pushBatchNs.Snapshot().Sum) / float64(v.TicksPushed) / 1e3
	}
	if v.SnapshotRuns > 0 {
		v.SnapshotRunMeanMs = float64(ins.snapRunNs.Snapshot().Sum) / float64(v.SnapshotRuns) / 1e6
	}
	if delivered := v.EventsDelta + v.EventsFull; delivered > 0 {
		v.DeltaRatio = float64(v.EventsDelta) / float64(delivered)
	}
	if v.Checkpoints > 0 {
		v.CheckpointMeanMs = float64(ins.ckptNs.Snapshot().Sum) / float64(v.Checkpoints) / 1e6
	}
	return v
}
