package serve

// HTTP tests of the incremental serving surface: opting a session in at
// create, the staleness metadata on snapshots / session info / statsz, and
// rejection of unsupported configurations.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"pfg"
)

// incrCreate creates an incremental session with the given knobs.
func incrCreate(h *testServer, id string, window int, method string, inc *IncrementalRequest) SessionInfo {
	h.t.Helper()
	var info SessionInfo
	h.mustJSON("POST", "/v1/sessions", CreateSessionRequest{
		ID: id, Window: window, Method: method, Workers: 1, RebuildEvery: 1 << 20,
		Incremental: inc,
	}, http.StatusCreated, &info)
	return info
}

func TestIncrementalSession(t *testing.T) {
	h := newTestServer(t, Options{})
	// ε=1 never trips on this data and MaxStale=-1 disables the staleness
	// gate, so after the first exact snapshot everything is a served-stale hit.
	info := incrCreate(h, "inc", 16, "complete-linkage",
		&IncrementalRequest{DriftThreshold: 1, MaxStale: -1})
	if !info.Incremental {
		t.Fatalf("create info not marked incremental: %+v", info)
	}
	stream := ticks(t, 6, 16+8, 7)
	for _, x := range stream[:16] {
		h.mustJSON("POST", "/v1/sessions/inc/push", PushRequest{Sample: x}, http.StatusOK, nil)
	}
	var snap SnapshotResponse
	h.mustJSON("GET", "/v1/sessions/inc/snapshot?k=2", nil, http.StatusOK, &snap)
	if snap.Result.StaleTicks != 0 || snap.Result.Drift != 0 {
		t.Fatalf("fill snapshot not exact: stale=%d drift=%v", snap.Result.StaleTicks, snap.Result.Drift)
	}

	// Slide the window; the loose gates keep serving the fill-time reference,
	// and the staleness metadata climbs with the slides.
	for _, x := range stream[16:] {
		h.mustJSON("POST", "/v1/sessions/inc/push", PushRequest{Sample: x}, http.StatusOK, nil)
	}
	h.mustJSON("GET", "/v1/sessions/inc/snapshot?k=2", nil, http.StatusOK, &snap)
	if snap.Result.StaleTicks != 8 {
		t.Fatalf("stale snapshot reports %d ticks, want 8", snap.Result.StaleTicks)
	}
	if snap.Result.Drift <= 0 {
		t.Fatalf("stale snapshot reports no drift")
	}

	// The last-served staleness surfaces on session info and /statsz.
	h.mustJSON("GET", "/v1/sessions/inc", nil, http.StatusOK, &info)
	if info.StaleTicks != 8 || info.Drift != snap.Result.Drift {
		t.Fatalf("session info staleness %d/%v, want 8/%v", info.StaleTicks, info.Drift, snap.Result.Drift)
	}
	var stats StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &stats)
	if stats.IncrementalHits == 0 {
		t.Fatalf("statsz reports no incremental hits: %+v", stats)
	}
	if stats.IncrementalFulls == 0 || stats.IncrementalFullsBoundary == 0 {
		t.Fatalf("statsz missing the fill-time exact rebuild: %+v", stats)
	}
	if len(stats.SessionInfos) != 1 || stats.SessionInfos[0].StaleTicks != 8 {
		t.Fatalf("statsz session info staleness: %+v", stats.SessionInfos)
	}
}

func TestIncrementalForcedExact(t *testing.T) {
	h := newTestServer(t, Options{})
	// A negative ε forces the exact path on every snapshot: staleness never
	// appears on the wire and the hit counter stays zero.
	incrCreate(h, "strict", 12, "tmfg-dbht", &IncrementalRequest{DriftThreshold: -1})
	stream := ticks(t, 8, 12+6, 11)
	for i, x := range stream {
		h.mustJSON("POST", "/v1/sessions/strict/push", PushRequest{Sample: x}, http.StatusOK, nil)
		if i+1 < 12 {
			continue
		}
		var snap SnapshotResponse
		h.mustJSON("GET", "/v1/sessions/strict/snapshot?k=2", nil, http.StatusOK, &snap)
		if snap.Result.StaleTicks != 0 || snap.Result.Drift != 0 {
			t.Fatalf("tick %d: forced-exact session served stale result", i+1)
		}
	}
	var stats StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &stats)
	if stats.IncrementalHits != 0 {
		t.Fatalf("forced-exact session recorded %d hits", stats.IncrementalHits)
	}
	if stats.IncrementalFullsDrift == 0 {
		t.Fatalf("forced-exact session never tripped the drift gate: %+v", stats)
	}
}

func TestIncrementalUnsupportedMethod(t *testing.T) {
	h := newTestServer(t, Options{})
	status, body := h.do("POST", "/v1/sessions", CreateSessionRequest{
		ID: "p", Window: 16, Method: "pmfg-dbht", Incremental: &IncrementalRequest{},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("incremental pmfg create: status %d, body %s", status, body)
	}
}

// TestIncrementalRemovedKnobsRejected: repair_budget and validate_every are
// no longer create fields, so a request naming one fails as an unknown field
// — a 400 that names it — instead of creating a session that ignores it.
func TestIncrementalRemovedKnobsRejected(t *testing.T) {
	h := newTestServer(t, Options{})
	for _, field := range []string{"repair_budget", "validate_every"} {
		body := json.RawMessage(`{"id":"s","window":16,"incremental":{"` + field + `":2}}`)
		status, resp := h.do("POST", "/v1/sessions", body)
		if status != http.StatusBadRequest || !bytes.Contains(resp, []byte(field)) {
			t.Fatalf("create with %s: status %d, body %s; want 400 naming the field", field, status, resp)
		}
	}
	if n := h.srv.reg.Len(); n != 0 {
		t.Fatalf("rejected creates left %d sessions", n)
	}
}

func TestNonIncrementalSessionOmitsMetadata(t *testing.T) {
	h := newTestServer(t, Options{})
	info := createSession(h, "plain", 16, "complete-linkage")
	if info.Incremental || info.StaleTicks != 0 || info.Drift != 0 {
		t.Fatalf("plain session carries incremental metadata: %+v", info)
	}
	var stats StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &stats)
	if stats.IncrementalHits != 0 || stats.IncrementalFulls != 0 {
		t.Fatalf("plain session moved incremental counters: %+v", stats)
	}
}

// TestIncrementalHitReusesView drives a Workers:1 incremental session with
// two cut sets through hits, drift refreshes, staleness refreshes and rebuild
// boundaries, in lockstep with a shadow Streamer of the same configuration
// snapshotted at the same generations. Every GET body must equal the bytes
// the shadow's result gives through Result.JSON and marshal — so a hit's
// reused view must carry the hit's own stale_ticks and drift, and a new
// reference must never be served an older reference's view — and so must
// every view a subscriber rebuilds from the event stream with ApplyDelta.
// After a hit, /driftz reads ARI 1 and no edge churn.
func TestIncrementalHitReusesView(t *testing.T) {
	const (
		id     = "reuse"
		window = 24
		n      = 12
	)
	inc := pfg.IncrementalOptions{Enabled: true, DriftThreshold: 0.4, MaxStale: 5}
	h := newTestServer(t, Options{})
	h.mustJSON("POST", "/v1/sessions", CreateSessionRequest{
		ID: id, Window: window, Method: "tmfg-dbht", Workers: 1, RebuildEvery: 20,
		Incremental: &IncrementalRequest{DriftThreshold: inc.DriftThreshold, MaxStale: inc.MaxStale},
	}, http.StatusCreated, nil)
	shadow, err := pfg.NewStreamer(window, pfg.StreamOptions{
		Cluster:      pfg.Options{Method: pfg.TMFGDBHT, Workers: 1},
		RebuildEvery: 20,
		Incremental:  inc,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer shadow.Close()

	stream := ticks(t, n, window+90, 13)
	push := func(x []float64) {
		h.mustJSON("POST", "/v1/sessions/"+id+"/push", PushRequest{Sample: x}, http.StatusOK, nil)
		if err := shadow.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	for _, x := range stream[:window] {
		push(x)
	}

	cutSets := [][]int{{2}, {3, 5}}
	// want returns the body the GET path must serve for each cut set, from
	// the shadow's one snapshot of the current generation.
	want := func() (uint64, *pfg.Result, [][]byte) {
		res, gen, err := shadow.SnapshotGen(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		bodies := make([][]byte, len(cutSets))
		for i, ks := range cutSets {
			view, err := res.JSON(ks, nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(SnapshotResponse{Session: id, Method: "tmfg-dbht", Window: window, Generation: gen, Result: view})
			if err != nil {
				t.Fatal(err)
			}
			bodies[i] = append(b, '\n')
		}
		return gen, res, bodies
	}
	query := func(ks []int) string { return "k=" + cutsKey(ks) }

	gen, res, bodies := want()
	subs := make([]*sseClient, len(cutSets))
	views := make([]*pfg.ResultJSON, len(cutSets))
	for i, ks := range cutSets {
		subs[i] = openEvents(h, "/v1/sessions/"+id+"/events?"+query(ks))
	}
	for step, x := range append([][]float64{nil}, stream[window:]...) {
		if x != nil {
			push(x)
			gen, res, bodies = want()
		}
		for i, ks := range cutSets {
			status, got := h.do("GET", "/v1/sessions/"+id+"/snapshot?"+query(ks), nil)
			if status != http.StatusOK || !bytes.Equal(got, bodies[i]) {
				t.Fatalf("step %d gen %d %s: status %d, GET body\n got: %s\nwant: %s", step, gen, query(ks), status, got, bodies[i])
			}
			ev := subs[i].next()
			if ev.id != gen {
				t.Fatalf("step %d %s: event for generation %d, want %d", step, query(ks), ev.id, gen)
			}
			switch ev.name {
			case "snapshot":
				var snap SnapshotResponse
				if err := json.Unmarshal(ev.data, &snap); err != nil {
					t.Fatal(err)
				}
				views[i] = snap.Result
			case "delta":
				var dr DeltaResponse
				if err := json.Unmarshal(ev.data, &dr); err != nil {
					t.Fatal(err)
				}
				if views[i], err = views[i].ApplyDelta(dr.Delta); err != nil {
					t.Fatalf("step %d %s: %v", step, query(ks), err)
				}
			default:
				t.Fatalf("step %d %s: unexpected event %q", step, query(ks), ev.name)
			}
			b, err := json.Marshal(SnapshotResponse{Session: id, Method: "tmfg-dbht", Window: window, Generation: gen, Result: views[i]})
			if err != nil {
				t.Fatal(err)
			}
			if b = append(b, '\n'); !bytes.Equal(b, bodies[i]) {
				t.Fatalf("step %d gen %d %s: %s event rebuilds\n got: %s\nwant: %s", step, gen, query(ks), ev.name, b, bodies[i])
			}
		}
		var dz DriftzResponse
		h.mustJSON("GET", "/driftz", nil, http.StatusOK, &dz)
		if d := dz.Sessions[0].Drift; res.TicksSinceExact > 0 &&
			(dz.Sessions[0].Generation != gen || d == nil || d.ARI != 1 || d.EdgesAdded+d.EdgesRemoved != 0) {
			t.Fatalf("step %d gen %d: /driftz after a hit reads %+v at generation %d, want ARI 1 and no churn",
				step, gen, d, dz.Sessions[0].Generation)
		}
	}
	st, _ := shadow.IncrementalStats()
	if st.Hits == 0 || st.FullDrift == 0 || st.FullStale == 0 || st.FullBoundary == 0 {
		t.Fatalf("the run must cover hits and drift, staleness and rebuild-boundary refreshes: %+v", st)
	}
}
