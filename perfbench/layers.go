package main

import "slices"

// endToEnd lists the end-to-end metrics an untraced run's last line
// carries, with their units; BENCHMARK.json bounds each. Every workload
// measures all of them. Every run also prints ack_p50_ms and
// cluster_p90_ms, and a serve run visible_p99_ms and ack_p99_ms, without
// gating them: on a 2-vCPU VM with a shared disk their spread over ten
// runs reached 0.2–0.4 of the median (poll-durable's ack_p50_ms is
// mostly a WAL fsync), while no bound may exceed 0.25; and batch-tmfg's
// ~160 calls per run cannot support a p99.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"visible_p50_ms", "ms"},
	{"cluster_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
	{"bytes_per_update", "bytes"},
	{"ari", "index"},
}

func gated(name string) bool {
	return slices.ContainsFunc(endToEnd, func(m struct{ name, unit string }) bool { return m.name == name })
}

// perLayer lists every per-layer metric, in print order, with its unit. A
// traced run prints all of them; one a workload has no layer for reads 0
// with a note saying so. Names are the module each metric measures.
var perLayer = []struct{ name, unit string }{
	// batch-tmfg: spans around the calls core.TMFGDBHTWS makes.
	{"matrix.correlate_ms", "ms"},
	{"kernel.syrk_gflops", "GFLOP/s"},
	{"tmfg.build_ms", "ms"},
	{"graph.apsp_ms", "ms"},
	{"dbht.bubbletree_ms", "ms"},
	{"dbht.hierarchy_ms", "ms"},
	{"dbht.self_ms", "ms"},
	{"pfg.alloc_mb_per_op", "MB"},
	{"pfg.gc_per_op", "count"},
	// Serve workloads: /metricsz and /statsz deltas over the timed phase.
	{"stream.admit_us", "us"},
	{"stream.roll_us", "us"},
	{"stream.rebuilds", "count"},
	{"stream.rebuild_ms", "ms"},
	{"matrix.finish_ms", "ms"},
	{"core.cluster_ms", "ms"},
	{"inc.hit_ratio", "fraction"},
	{"inc.fulls_drift", "count"},
	{"inc.fulls_stale", "count"},
	{"inc.fulls_boundary", "count"},
	{"inc.drift_us", "us"},
	{"inc.refresh_ms", "ms"},
	{"serve.push_batch_us", "us"},
	{"serve.run_ms", "ms"},
	{"serve.runs_per_gen", "count"},
	{"serve.encodes_per_gen", "count"},
	{"serve.gens_per_push", "fraction"},
	{"serve.delta_fraction", "fraction"},
	{"serve.event_bytes_per_gen", "bytes"},
	{"serve.queue_depth_mean", "count"},
	{"serve.long_poll_waits", "count"},
	{"serve.not_modified", "count"},
	{"serve.errors", "count"},
	{"serve.unattributed_ms", "ms"},
	{"ckpt.checkpoints", "count"},
	{"ckpt.checkpoint_ms", "ms"},
	{"ckpt.checkpoint_mb", "MB"},
	{"ckpt.wal_bytes_per_push", "bytes"},
	// Serve workloads: spans around the load generator's own calls.
	{"client.late_ms_p50", "ms"},
	{"client.late_ms_max", "ms"},
	{"client.push_rtt_ms", "ms"},
	{"client.visible_wait_ms", "ms"},
	// The ungated end-to-end figures, so a traced run carries them too.
	{"client.ack_p50_ms", "ms"},
	{"client.ack_p99_ms", "ms"},
	{"client.visible_p99_ms", "ms"},
	// Every workload: traced minus untraced operations, interleaved in the
	// traced run.
	{"trace.overhead_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// layerMetrics collects one traced run's per-layer values and notes.
type layerMetrics struct {
	vals  map[string]float64
	notes map[string]string
}

func newLayerMetrics() *layerMetrics {
	return &layerMetrics{vals: map[string]float64{}, notes: map[string]string{}}
}

func (lm *layerMetrics) set(name string, v float64) { lm.vals[name] = v }

func (lm *layerMetrics) note(name, text string) { lm.notes[name] = text }

// ratio sets name to num/den, or leaves it unmeasured with a note when the
// run produced no samples of den.
func (lm *layerMetrics) ratio(name string, num, den float64) {
	if den == 0 {
		lm.note(name, "not measured: no samples in this run")
		return
	}
	lm.set(name, num/den)
}

// emit adds every per-layer metric to rep in print order. A metric the
// workload did not set reads 0, noted with absent (why the workload has no
// such layer) unless a more specific note was recorded.
func (lm *layerMetrics) emit(rep *report, absent string) {
	if rep.notes == nil {
		rep.notes = map[string]string{}
	}
	for _, m := range perLayer {
		v, ok := lm.vals[m.name]
		if n, has := lm.notes[m.name]; has {
			rep.notes[m.name] = n
		} else if !ok {
			rep.notes[m.name] = "not measured: " + absent
		}
		rep.addLayer(m.name, v, m.unit)
	}
}
