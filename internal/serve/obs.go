package serve

import (
	"log"
	"net/http"
	"time"

	"pfg"
	"pfg/internal/obs"
)

// The server's observability surface is one obs.Registry (nil when
// Options.MetricsOff — every instrument below is then nil and every update
// a no-op, which is also the benchmark baseline the instrumented paths are
// held to). Counters that already exist as Stats atomics are mirrored with
// read-at-scrape CounterFuncs so the hot paths never double-count; only
// distributions (latency/size histograms) are new write points, and each
// one sits on a path that already reads the clock or the byte count it
// records.

// instruments is the server's histogram set. All fields are nil when the
// registry is nil; obs histograms are nil-safe, so update sites need no
// guards of their own.
type instruments struct {
	// Request-path latencies.
	pushBatchNs     *obs.Histogram // one HTTP push batch under the session push lock
	snapHitNs       *obs.Histogram // snapshot GET served from the generation cache
	snapCoalescedNs *obs.Histogram // snapshot GET that joined an in-flight run
	snapMissNs      *obs.Histogram // snapshot GET that led a clustering run
	snapRunNs       *obs.Histogram // the clustering run itself

	// Per-tick engine stages (internal/stream) and snapshot stages, shared
	// by every session: the per-session StreamerMetrics stages all point
	// here (see attachMetrics), so stage timing never multiplies the series
	// count by the session count.
	tickAdmit   *obs.Histogram
	tickRoll    *obs.Histogram
	tickRebuild *obs.Histogram
	snapFinish  *obs.Histogram
	snapCluster *obs.Histogram

	// Incremental gate-chain stages (internal/inc).
	incDrift   *obs.Histogram
	incRefresh *obs.Histogram

	// Durability write volumes and latencies.
	ckptNs        *obs.Histogram
	ckptBytes     *obs.Histogram
	walFrameBytes *obs.Histogram

	// Push-delivery backpressure: queue depth observed at each offer.
	subQueueDepth *obs.Histogram

	// Structure drift between consecutive computed generations (drift.go).
	driftAri   *obs.Histogram // 1e6 × (1 − ARI), so 0 = identical labelings
	driftChurn *obs.Histogram // filtered-graph edges added + removed
}

// newInstruments creates (or, on a nil registry, declines to create) the
// histogram set.
func newInstruments(r *obs.Registry) instruments {
	h := func(name, help string, kv ...string) *obs.Histogram {
		return r.Histogram(name, help, kv...)
	}
	return instruments{
		pushBatchNs:     h("pfg_push_batch_ns", "wall time of one HTTP push batch inside the session push lock, in nanoseconds"),
		snapHitNs:       h("pfg_snapshot_request_ns", "snapshot GET latency by cache outcome, in nanoseconds (1-in-8 sampled)", "source", "hit"),
		snapCoalescedNs: h("pfg_snapshot_request_ns", "snapshot GET latency by cache outcome, in nanoseconds (1-in-8 sampled)", "source", "coalesced"),
		snapMissNs:      h("pfg_snapshot_request_ns", "snapshot GET latency by cache outcome, in nanoseconds (1-in-8 sampled)", "source", "miss"),
		snapRunNs:       h("pfg_snapshot_run_ns", "wall time of one clustering run, in nanoseconds"),

		tickAdmit:   h("pfg_tick_stage_ns", "per-tick engine stage wall time, in nanoseconds", "stage", "admit"),
		tickRoll:    h("pfg_tick_stage_ns", "per-tick engine stage wall time, in nanoseconds", "stage", "roll"),
		tickRebuild: h("pfg_tick_stage_ns", "per-tick engine stage wall time, in nanoseconds", "stage", "rebuild"),
		snapFinish:  h("pfg_snapshot_stage_ns", "snapshot stage wall time, in nanoseconds", "stage", "finish"),
		snapCluster: h("pfg_snapshot_stage_ns", "snapshot stage wall time, in nanoseconds", "stage", "cluster"),

		incDrift:   h("pfg_inc_stage_ns", "incremental gate-chain stage wall time, in nanoseconds", "stage", "drift"),
		incRefresh: h("pfg_inc_stage_ns", "incremental gate-chain stage wall time, in nanoseconds", "stage", "refresh"),

		ckptNs:        h("pfg_checkpoint_write_ns", "wall time of one checkpoint write (write + fsync + rename + WAL rotate), in nanoseconds"),
		ckptBytes:     h("pfg_checkpoint_write_bytes", "bytes of one checkpoint file"),
		walFrameBytes: h("pfg_wal_frame_bytes", "bytes of one WAL push frame"),

		subQueueDepth: h("pfg_subscriber_queue_depth", "subscriber queue depth observed at each event offer"),

		driftAri:   h("pfg_drift_ari_distance_micros", "1e6 x (1 - adjusted Rand index) between consecutive generations' cut labelings; 0 = identical clusterings"),
		driftChurn: h("pfg_drift_edge_churn", "filtered-graph edges added plus removed between consecutive computed generations"),
	}
}

// registerStatFuncs mirrors the Stats atomics and the live gauges into the
// registry as read-at-scrape callbacks. No-op on a nil registry.
func (s *Server) registerStatFuncs() {
	r := s.obs
	if r == nil {
		return
	}
	st := &s.stats
	counters := []struct {
		name, help string
		load       func() uint64
	}{
		{"pfg_sessions_created_total", "sessions created", st.SessionsCreated.Load},
		{"pfg_sessions_deleted_total", "sessions deleted", st.SessionsDeleted.Load},
		{"pfg_ticks_pushed_total", "ticks admitted by Push", st.TicksPushed.Load},
		{"pfg_push_rejected_total", "ticks examined and refused by validation", st.PushRejected.Load},
		{"pfg_snapshot_requests_total", "snapshot requests admitted past routing", st.SnapshotRequests.Load},
		{"pfg_snapshot_hits_total", "snapshots served straight from the generation cache", st.SnapshotHits.Load},
		{"pfg_snapshot_coalesced_total", "snapshot requests that joined an in-flight run", st.SnapshotCoalesced.Load},
		{"pfg_snapshot_runs_total", "clustering runs launched", st.SnapshotRuns.Load},
		{"pfg_snapshot_errors_total", "clustering runs or waits that ended in an error", st.SnapshotErrors.Load},
		{"pfg_snapshot_rejected_total", "429s from snapshot admission control", st.SnapshotRejected.Load},
		{"pfg_snapshot_encodes_total", "full response bodies marshaled (body-cache misses)", st.SnapshotEncodes.Load},
		{"pfg_conditional_requests_total", "snapshot GETs carrying If-Generation", st.ConditionalRequests.Load},
		{"pfg_not_modified_total", "free 304s (generation unchanged)", st.NotModified.Load},
		{"pfg_long_poll_waits_total", "requests parked on the generation watch", st.LongPollWaits.Load},
		{"pfg_long_poll_timeouts_total", "parked requests that timed out into a 304", st.LongPollTimeouts.Load},
		{"pfg_subscribe_rejected_total", "subscriptions refused by the subscriber ceilings", st.SubscribeRejected.Load},
		{"pfg_events_delta_total", "delta events delivered", st.EventsDelta.Load},
		{"pfg_events_full_total", "full snapshot events delivered", st.EventsFull.Load},
		{"pfg_events_dropped_total", "updates discarded by slow-subscriber drop-to-latest", st.EventsDropped.Load},
		{"pfg_event_bytes_total", "bytes written to event streams", st.EventBytes.Load},
		{"pfg_event_bytes_saved_total", "bytes saved by delta deliveries vs full frames", st.EventBytesSaved.Load},
		{"pfg_delta_fallback_fulls_total", "deliveries that wanted a delta but fell back to full", st.DeltaFallbackFulls.Load},
		{"pfg_checkpoints_total", "checkpoints written", st.Checkpoints.Load},
		{"pfg_checkpoint_bytes_total", "total checkpoint bytes written", st.CheckpointBytes.Load},
		{"pfg_wal_frames_total", "push frames appended to WAL segments", st.WALFrames.Load},
		{"pfg_wal_bytes_total", "bytes appended to WAL segments", st.WALBytes.Load},
		{"pfg_recovered_sessions_total", "sessions restored by Recover at boot", st.RecoveredSessions.Load},
		{"pfg_wal_replayed_frames_total", "WAL frames replayed into recovered engines", st.ReplayedFrames.Load},
		{"pfg_wal_torn_truncations_total", "torn WAL tails dropped plus unusable checkpoints skipped", st.TornTruncations.Load},
		{"pfg_durability_errors_total", "disk failures that disabled durability or skipped a recovery", st.DurabilityErrors.Load},
	}
	for _, c := range counters {
		r.CounterFunc(c.name, c.help, c.load)
	}
	r.GaugeFunc("pfg_sessions", "live sessions", func() float64 { return float64(s.reg.Len()) })
	r.GaugeFunc("pfg_subscribers", "current SSE subscribers", func() float64 { return float64(st.Subscribers.Load()) })
	r.GaugeFunc("pfg_inflight_runs", "clustering runs currently holding an admission slot", func() float64 { return float64(len(s.sem)) })
	r.GaugeFunc("pfg_uptime_seconds", "seconds since the server started", func() float64 { return time.Since(s.start).Seconds() })
}

// attachMetrics installs per-stage timing on a session's streamer. The
// per-session stages point at the SHARED server histograms — each session
// still gets its own Stage.Last readback (the slow-tick log), but the
// exposition's series count stays independent of the session count. With
// metrics off, stages are attached only if the slow-tick log needs their
// Last values; otherwise the streamer stays entirely uninstrumented (no
// clock reads on the push path).
func (s *Server) attachMetrics(sess *Session) {
	var m *pfg.StreamerMetrics
	switch {
	case s.obs != nil:
		m = &pfg.StreamerMetrics{
			PushAdmit:       obs.NewStage(s.ins.tickAdmit),
			PushRoll:        obs.NewStage(s.ins.tickRoll),
			Rebuild:         obs.NewStage(s.ins.tickRebuild),
			SnapshotFinish:  obs.NewStage(s.ins.snapFinish),
			SnapshotCluster: obs.NewStage(s.ins.snapCluster),
			IncDrift:        obs.NewStage(s.ins.incDrift),
			IncRefresh:      obs.NewStage(s.ins.incRefresh),
		}
	case s.opts.LogSlowTick > 0:
		m = pfg.NewStreamerMetrics()
	default:
		return
	}
	sess.met.Store(m)
	sess.st.SetMetrics(m)
	if r := s.obs; r != nil {
		t := &sess.drift
		r.GaugeFunc("pfg_session_drift_ari", "adjusted Rand index between the session's two most recent computed generations (1 = unchanged clustering)",
			t.lastARI, "session", sess.ID)
		r.GaugeFunc("pfg_session_edge_churn", "filtered-graph edges added plus removed between the session's two most recent computed generations",
			t.lastChurn, "session", sess.ID)
	}
}

// detachMetrics drops a deleted session's per-session gauges from the
// exposition. No-op with metrics off.
func (s *Server) detachMetrics(id string) {
	s.obs.Remove("pfg_session_drift_ari", "session", id)
	s.obs.Remove("pfg_session_edge_churn", "session", id)
}

// logSlowPush emits the -log-slow-tick breakdown for a push batch that
// blew the threshold. Called under the session's push lock, so the stage
// Lasts are the batch's final tick (a batch's ticks are near-identical
// work; the interesting outlier is a rebuild, which the rebuild stage's
// Last pins). Rebuild's Last persists from the most recent rebuild tick,
// which may predate this batch.
func logSlowPush(sess *Session, admitted int, elapsed time.Duration) {
	m := sess.met.Load()
	if m == nil {
		return
	}
	log.Printf("serve: slow push session=%s gen=%d ticks=%d total=%s admit=%s roll=%s rebuild=%s",
		sess.ID, sess.st.Generation(), admitted, elapsed,
		m.PushAdmit.Last(), m.PushRoll.Last(), m.Rebuild.Last())
}

// logSlowSnapshot emits the -log-slow-tick breakdown for a clustering run
// over the threshold: the non-incremental finish/cluster split plus the
// incremental gate-chain stages (zero for sessions that never ran them).
func logSlowSnapshot(sess *Session, gen uint64, elapsed time.Duration) {
	m := sess.met.Load()
	if m == nil {
		return
	}
	log.Printf("serve: slow snapshot session=%s gen=%d total=%s finish=%s cluster=%s inc_drift=%s inc_refresh=%s",
		sess.ID, gen, elapsed,
		m.SnapshotFinish.Last(), m.SnapshotCluster.Last(),
		m.IncDrift.Last(), m.IncRefresh.Last())
}

// handleMetricsz is GET /metricsz: the Prometheus text exposition of the
// whole registry. With metrics off the body is empty (still a valid
// exposition).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.WritePrometheus(w)
}

// summaries digests every histogram into the /statsz histograms map; keys
// are stable wire names.
func (ins *instruments) summaries() map[string]obs.Summary {
	return map[string]obs.Summary{
		"push_batch_ns":             obs.Summarize(ins.pushBatchNs),
		"tick_admit_ns":             obs.Summarize(ins.tickAdmit),
		"tick_roll_ns":              obs.Summarize(ins.tickRoll),
		"tick_rebuild_ns":           obs.Summarize(ins.tickRebuild),
		"snapshot_hit_ns":           obs.Summarize(ins.snapHitNs),
		"snapshot_coalesced_ns":     obs.Summarize(ins.snapCoalescedNs),
		"snapshot_miss_ns":          obs.Summarize(ins.snapMissNs),
		"snapshot_run_ns":           obs.Summarize(ins.snapRunNs),
		"snapshot_finish_ns":        obs.Summarize(ins.snapFinish),
		"snapshot_cluster_ns":       obs.Summarize(ins.snapCluster),
		"inc_drift_ns":              obs.Summarize(ins.incDrift),
		"inc_refresh_ns":            obs.Summarize(ins.incRefresh),
		"checkpoint_write_ns":       obs.Summarize(ins.ckptNs),
		"checkpoint_write_bytes":    obs.Summarize(ins.ckptBytes),
		"wal_frame_bytes":           obs.Summarize(ins.walFrameBytes),
		"subscriber_queue_depth":    obs.Summarize(ins.subQueueDepth),
		"drift_ari_distance_micros": obs.Summarize(ins.driftAri),
		"drift_edge_churn":          obs.Summarize(ins.driftChurn),
	}
}
