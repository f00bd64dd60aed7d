package serve

import (
	"log"
	"net/http"
	"time"

	"pfg"
	"pfg/internal/obs"
)

// The server's observability surface is one obs.Registry, and it is the
// only counter system: every /statsz counter is an obs.Counter registered
// here, rendered by /metricsz as pfg_<statsz key>_total and read back by
// /statsz (stats.go). The distributions (latency/size histograms) sit on
// paths that already read the clock or the byte count they record.

// instruments is the server's counter and histogram set.
type instruments struct {
	// Counters, one per /statsz field of the same name.
	sessionsCreated     *obs.Counter
	sessionsDeleted     *obs.Counter
	ticksPushed         *obs.Counter
	pushRejected        *obs.Counter // ticks examined and refused (a batch's aborted remainder is not counted)
	snapshotRequests    *obs.Counter
	snapshotHits        *obs.Counter
	snapshotCoalesced   *obs.Counter
	snapshotRuns        *obs.Counter
	snapshotErrors      *obs.Counter
	snapshotRejected    *obs.Counter
	snapshotEncodes     *obs.Counter
	conditionalRequests *obs.Counter
	notModified         *obs.Counter
	longPollWaits       *obs.Counter
	longPollTimeouts    *obs.Counter
	subscribeRejected   *obs.Counter
	eventsDelta         *obs.Counter
	eventsFull          *obs.Counter
	eventsDropped       *obs.Counter
	eventBytes          *obs.Counter
	eventBytesSaved     *obs.Counter // Σ (full frame − sent frame) over delta deliveries
	deltaFallbackFulls  *obs.Counter
	checkpoints         *obs.Counter
	checkpointBytes     *obs.Counter
	walFrames           *obs.Counter
	walBytes            *obs.Counter
	recoveredSessions   *obs.Counter
	replayedFrames      *obs.Counter
	tornTruncations     *obs.Counter // WAL tears + unusable checkpoints skipped
	durabilityErrors    *obs.Counter
	subscribers         *obs.Gauge // current SSE subscribers

	// Request-path latencies. pushBatchNs and snapRunNs also time rejected
	// batches and failed runs: their sums are the totals behind the /statsz
	// push_mean_us and snapshot_run_mean_ms.
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

	// Incremental gate-chain stages.
	incDrift   *obs.Histogram
	incRefresh *obs.Histogram

	// Serving stages that run once per generation: the body build (wire
	// view plus marshal, once per cut set) and the structure-drift record.
	serveEncode    *obs.Histogram
	serveStructure *obs.Histogram

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

// newInstruments registers the counter and histogram set in r.
func newInstruments(r *obs.Registry) instruments {
	c := func(key, help string) *obs.Counter {
		return r.Counter("pfg_"+key+"_total", help)
	}
	h := func(name, help string, kv ...string) *obs.Histogram {
		return r.Histogram(name, help, kv...)
	}
	return instruments{
		sessionsCreated:     c("sessions_created", "sessions created"),
		sessionsDeleted:     c("sessions_deleted", "sessions deleted"),
		ticksPushed:         c("ticks_pushed", "ticks admitted by Push"),
		pushRejected:        c("push_rejected", "ticks examined and refused by validation"),
		snapshotRequests:    c("snapshot_requests", "snapshot requests admitted past routing"),
		snapshotHits:        c("snapshot_hits", "snapshots served straight from the generation cache"),
		snapshotCoalesced:   c("snapshot_coalesced", "snapshot requests that joined an in-flight run"),
		snapshotRuns:        c("snapshot_runs", "clustering runs launched"),
		snapshotErrors:      c("snapshot_errors", "clustering runs or waits that ended in an error"),
		snapshotRejected:    c("snapshot_rejected", "429s from snapshot admission control"),
		snapshotEncodes:     c("snapshot_encodes", "full response bodies marshaled (body-cache misses)"),
		conditionalRequests: c("conditional_requests", "snapshot GETs carrying If-Generation"),
		notModified:         c("not_modified", "free 304s (generation unchanged)"),
		longPollWaits:       c("long_poll_waits", "requests parked on the generation watch"),
		longPollTimeouts:    c("long_poll_timeouts", "parked requests that timed out into a 304"),
		subscribeRejected:   c("subscribe_rejected", "subscriptions refused by the subscriber ceilings"),
		eventsDelta:         c("events_delta", "delta events delivered"),
		eventsFull:          c("events_full", "full snapshot events delivered"),
		eventsDropped:       c("events_dropped", "updates discarded by slow-subscriber drop-to-latest"),
		eventBytes:          c("event_bytes", "bytes written to event streams"),
		eventBytesSaved:     c("event_bytes_saved", "bytes saved by delta deliveries vs full frames"),
		deltaFallbackFulls:  c("delta_fallback_fulls", "deliveries that wanted a delta but fell back to full"),
		checkpoints:         c("checkpoints", "checkpoints written"),
		checkpointBytes:     c("checkpoint_bytes", "total checkpoint bytes written"),
		walFrames:           c("wal_frames", "push frames appended to WAL segments"),
		walBytes:            c("wal_bytes", "bytes appended to WAL segments"),
		recoveredSessions:   c("recovered_sessions", "sessions restored by Recover at boot"),
		replayedFrames:      c("wal_replayed_frames", "WAL frames replayed into recovered engines"),
		tornTruncations:     c("wal_torn_truncations", "torn WAL tails dropped plus unusable checkpoints skipped"),
		durabilityErrors:    c("durability_errors", "disk failures that disabled durability or skipped a recovery"),
		subscribers:         r.Gauge("pfg_subscribers", "current SSE subscribers"),

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

		serveEncode:    h("pfg_serve_stage_ns", "per-generation serving stage wall time, in nanoseconds", "stage", "encode"),
		serveStructure: h("pfg_serve_stage_ns", "per-generation serving stage wall time, in nanoseconds", "stage", "structure"),

		ckptNs:        h("pfg_checkpoint_write_ns", "wall time of one checkpoint write (write + fsync + rename + WAL rotate), in nanoseconds"),
		ckptBytes:     h("pfg_checkpoint_write_bytes", "bytes of one checkpoint file"),
		walFrameBytes: h("pfg_wal_frame_bytes", "bytes of one WAL push frame"),

		subQueueDepth: h("pfg_subscriber_queue_depth", "subscriber queue depth observed at each event offer"),

		driftAri:   h("pfg_drift_ari_distance_micros", "1e6 x (1 - adjusted Rand index) between consecutive generations' cut labelings; 0 = identical clusterings"),
		driftChurn: h("pfg_drift_edge_churn", "filtered-graph edges added plus removed between consecutive computed generations"),
	}
}

// registerGaugeFuncs registers the gauges whose values live elsewhere and
// are read at scrape time.
func (s *Server) registerGaugeFuncs() {
	s.obs.GaugeFunc("pfg_sessions", "live sessions", func() float64 { return float64(s.reg.Len()) })
	s.obs.GaugeFunc("pfg_inflight_runs", "clustering runs currently holding an admission slot", func() float64 { return float64(len(s.sem)) })
	s.obs.GaugeFunc("pfg_uptime_seconds", "seconds since the server started", func() float64 { return time.Since(s.start).Seconds() })
}

// attachMetrics installs per-stage timing on a session's streamer. The
// per-session stages point at the SHARED server histograms — each session
// still gets its own Stage.Last readback (the slow-tick log), but the
// exposition's series count stays independent of the session count.
func (s *Server) attachMetrics(sess *Session) {
	m := &pfg.StreamerMetrics{
		PushAdmit:       obs.NewStage(s.ins.tickAdmit),
		PushRoll:        obs.NewStage(s.ins.tickRoll),
		Rebuild:         obs.NewStage(s.ins.tickRebuild),
		SnapshotFinish:  obs.NewStage(s.ins.snapFinish),
		SnapshotCluster: obs.NewStage(s.ins.snapCluster),
		IncDrift:        obs.NewStage(s.ins.incDrift),
		IncRefresh:      obs.NewStage(s.ins.incRefresh),
	}
	sess.st.SetMetrics(m)
	c := &sess.cache
	s.obs.GaugeFunc("pfg_session_drift_ari", "adjusted Rand index between the session's two most recent computed generations (1 = unchanged clustering)",
		func() float64 { return c.lastDrift().ARI }, "session", sess.ID)
	s.obs.GaugeFunc("pfg_session_edge_churn", "filtered-graph edges added plus removed between the session's two most recent computed generations",
		func() float64 { d := c.lastDrift(); return float64(d.EdgesAdded + d.EdgesRemoved) }, "session", sess.ID)
}

// detachMetrics drops a deleted session's per-session gauges from the
// exposition.
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
	m := sess.st.Metrics()
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
	m := sess.st.Metrics()
	if m == nil {
		return
	}
	log.Printf("serve: slow snapshot session=%s gen=%d total=%s finish=%s cluster=%s inc_drift=%s inc_refresh=%s",
		sess.ID, gen, elapsed,
		m.SnapshotFinish.Last(), m.SnapshotCluster.Last(),
		m.IncDrift.Last(), m.IncRefresh.Last())
}

// handleMetricsz is GET /metricsz: the Prometheus text exposition of the
// whole registry.
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
		"serve_encode_ns":           obs.Summarize(ins.serveEncode),
		"serve_structure_ns":        obs.Summarize(ins.serveStructure),
		"checkpoint_write_ns":       obs.Summarize(ins.ckptNs),
		"checkpoint_write_bytes":    obs.Summarize(ins.ckptBytes),
		"wal_frame_bytes":           obs.Summarize(ins.walFrameBytes),
		"subscriber_queue_depth":    obs.Summarize(ins.subQueueDepth),
		"drift_ari_distance_micros": obs.Summarize(ins.driftAri),
		"drift_edge_churn":          obs.Summarize(ins.driftChurn),
	}
}
