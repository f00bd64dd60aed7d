package serve

// The two counter surfaces, /statsz (JSON) and /metricsz (Prometheus
// text), read one set of instruments. This file pins both: the /statsz key
// list, the pfg_<key>_total family per counter, and the agreement of the
// /statsz means with the histogram sums /metricsz exposes.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// statszCounters are the /statsz keys that are counters; /metricsz renders
// each one as pfg_<key>_total.
var statszCounters = []string{
	"sessions_created", "sessions_deleted",
	"ticks_pushed", "push_rejected",
	"snapshot_requests", "snapshot_hits", "snapshot_coalesced", "snapshot_runs",
	"snapshot_errors", "snapshot_rejected", "snapshot_encodes",
	"conditional_requests", "not_modified", "long_poll_waits", "long_poll_timeouts",
	"subscribe_rejected", "events_delta", "events_full", "events_dropped",
	"event_bytes", "event_bytes_saved", "delta_fallback_fulls",
	"checkpoints", "checkpoint_bytes", "wal_frames", "wal_bytes",
	"recovered_sessions", "wal_replayed_frames", "wal_torn_truncations", "durability_errors",
}

// statszOthers are the remaining top-level /statsz keys: metadata, gauges,
// derived means and ratios, the incremental totals, and the nested digests.
var statszOthers = []string{
	"kernel_isa", "sessions", "push_mean_us", "snapshot_run_mean_ms", "subscribers",
	"delta_ratio", "checkpoint_mean_ms",
	"incremental_hits", "incremental_fulls", "incremental_fulls_drift", "incremental_fulls_stale",
	"incremental_fulls_boundary", "incremental_fulls_repair", "incremental_repairs",
	"histograms", "session_infos",
}

// scrapeMetricsz parses the unlabeled samples of /metricsz into a map from
// sample name to value.
func scrapeMetricsz(h *testServer) map[string]string {
	h.t.Helper()
	status, body := h.do("GET", "/metricsz", nil)
	if status != http.StatusOK {
		h.t.Fatalf("/metricsz: status %d", status)
	}
	out := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			h.t.Fatalf("/metricsz line %q", line)
		}
		out[name] = value
	}
	return out
}

// TestStatszMetricszAgree drives mixed traffic through a durable server and
// then checks that both wire surfaces report it identically.
func TestStatszMetricszAgree(t *testing.T) {
	h := newTestServer(t, durableOptions(t.TempDir()))
	durableSession(h, "pin", false)
	stream := ticks(t, 4, 14, 9)
	pushTicks(h, "pin", stream[:7])
	pushTicks(h, "pin", stream[7:])
	// A push whose only tick is rejected (wrong arity): the batch is timed,
	// nothing is admitted.
	if status, body := h.do("POST", "/v1/sessions/pin/push", PushRequest{Sample: make([]float64, 3)}); status != http.StatusBadRequest {
		t.Fatalf("wrong-arity push: status %d, body %s", status, body)
	}
	gen := sessionGen(h, "pin")
	snapshotBody(h, "pin") // miss: one clustering run
	snapshotBody(h, "pin") // hit

	req, _ := http.NewRequest("GET", h.ts.URL+"/v1/sessions/pin/snapshot", nil)
	req.Header.Set("If-Generation", strconv.FormatUint(gen, 10))
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET: status %d, want 304", resp.StatusCode)
	}
	if status, _ := h.do("GET", fmt.Sprintf("/v1/sessions/pin/snapshot?k=3&if_generation=%d&wait=20ms", gen), nil); status != http.StatusNotModified {
		t.Fatalf("long-poll: status %d, want 304", status)
	}

	sess, _ := h.srv.reg.Get("pin")
	c := openEvents(h, "/v1/sessions/pin/events?k=3")
	if ev := c.next(); ev.name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", ev.name)
	}
	h.mustJSON("DELETE", "/v1/sessions/pin", nil, http.StatusNoContent, nil)
	if ev := c.next(); ev.name != "bye" {
		t.Fatalf("post-delete event %q, want bye", ev.name)
	}
	// Quiesce: the stream's handler has returned and the session's
	// broadcaster has stopped, so no counter moves between the two scrapes.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		sess.bcast.mu.Lock()
		running := sess.bcast.running
		sess.bcast.mu.Unlock()
		if !running && statsView(h).Subscribers == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server did not quiesce")
		}
	}

	_, body := h.do("GET", "/statsz", nil)
	var statsz map[string]json.RawMessage
	if err := json.Unmarshal(body, &statsz); err != nil {
		t.Fatal(err)
	}
	metricsz := scrapeMetricsz(h)

	// 1. The /statsz key list.
	var keys []string
	for k := range statsz {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	want := append(slices.Clone(statszCounters), statszOthers...)
	slices.Sort(want)
	if !slices.Equal(keys, want) {
		t.Fatalf("/statsz keys\n got %q\nwant %q", keys, want)
	}

	// 2. Every counter is pfg_<key>_total with the /statsz value, and no
	// other family ends in _total.
	num := func(key string) uint64 {
		t.Helper()
		v, err := strconv.ParseUint(string(statsz[key]), 10, 64)
		if err != nil {
			t.Fatalf("/statsz %s = %s: %v", key, statsz[key], err)
		}
		return v
	}
	totals := 0
	for name := range metricsz {
		if strings.HasPrefix(name, "pfg_") && strings.HasSuffix(name, "_total") {
			totals++
		}
	}
	if totals != len(statszCounters) {
		t.Fatalf("/metricsz has %d pfg_*_total samples, want %d", totals, len(statszCounters))
	}
	for _, key := range statszCounters {
		got, ok := metricsz["pfg_"+key+"_total"]
		if !ok {
			t.Fatalf("/metricsz lacks pfg_%s_total", key)
		}
		if want := strconv.FormatUint(num(key), 10); got != want {
			t.Errorf("pfg_%s_total = %s, /statsz %s = %s", key, got, key, want)
		}
	}
	if num("push_rejected") != 1 || num("long_poll_timeouts") != 1 || num("not_modified") != 2 ||
		num("snapshot_runs") != 1 || num("events_full") == 0 || num("sessions_deleted") != 1 {
		t.Fatalf("traffic not reflected in /statsz: %s", body)
	}

	// 3. Each mean is its histogram's _sum over the event count.
	for _, m := range []struct {
		mean, sum, count string
		scale            float64
	}{
		{"push_mean_us", "pfg_push_batch_ns_sum", "ticks_pushed", 1e3},
		{"snapshot_run_mean_ms", "pfg_snapshot_run_ns_sum", "snapshot_runs", 1e6},
		{"checkpoint_mean_ms", "pfg_checkpoint_write_ns_sum", "checkpoints", 1e6},
	} {
		sum, err := strconv.ParseUint(metricsz[m.sum], 10, 64)
		if err != nil {
			t.Fatalf("%s = %q: %v", m.sum, metricsz[m.sum], err)
		}
		var got float64
		if err := json.Unmarshal(statsz[m.mean], &got); err != nil {
			t.Fatal(err)
		}
		n := num(m.count)
		if n == 0 || sum == 0 {
			t.Fatalf("%s = %d, %s = %d: traffic did not reach this mean", m.count, n, m.sum, sum)
		}
		if want := float64(sum) / float64(n) / m.scale; got != want {
			t.Errorf("%s = %v, want %s / %s = %v", m.mean, got, m.sum, m.count, want)
		}
	}
}
