package serve

// White-box HTTP tests of the serving layer: session lifecycle, push
// ingestion, snapshot serving and its error surface, admission control, and
// the stats endpoints. The coalescing guarantee has its own file
// (coalesce_test.go).

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"pfg"
	"pfg/internal/tsgen"
)

type testServer struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
}

func newTestServer(t *testing.T, opts Options) *testServer {
	t.Helper()
	srv := New(opts)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return &testServer{t: t, srv: srv, ts: ts}
}

// do sends one JSON request and returns the status code and body.
func (h *testServer) do(method, path string, body any) (int, []byte) {
	h.t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			h.t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		h.t.Fatal(err)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		h.t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		h.t.Fatal(err)
	}
	return resp.StatusCode, out
}

func (h *testServer) mustJSON(method, path string, body any, wantStatus int, out any) {
	h.t.Helper()
	status, b := h.do(method, path, body)
	if status != wantStatus {
		h.t.Fatalf("%s %s: status %d, want %d; body %s", method, path, status, wantStatus, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			h.t.Fatalf("%s %s: bad body %s: %v", method, path, b, err)
		}
	}
}

// ticks materializes a deterministic tick stream: count ticks over n series.
func ticks(t *testing.T, n, count int, seed int64) [][]float64 {
	t.Helper()
	length := count
	if length < 8 { // tsgen's minimum series length
		length = 8
	}
	ds := tsgen.GenerateClassed("serve", n, length, 3, 0.5, seed)
	out := make([][]float64, count)
	for k := range out {
		x := make([]float64, n)
		for i := range x {
			x[i] = ds.Series[i][k]
		}
		out[k] = x
	}
	return out
}

func createSession(h *testServer, id string, window int, method string) SessionInfo {
	h.t.Helper()
	var info SessionInfo
	h.mustJSON("POST", "/v1/sessions", CreateSessionRequest{
		ID: id, Window: window, Method: method,
	}, http.StatusCreated, &info)
	return info
}

func TestSessionLifecycle(t *testing.T) {
	h := newTestServer(t, Options{})

	info := createSession(h, "feed-1", 32, "complete-linkage")
	if info.ID != "feed-1" || info.Window != 32 || info.Method != "complete-linkage" ||
		info.Len != 0 || info.Generation != 0 || info.Series != 0 {
		t.Fatalf("bad create info: %+v", info)
	}

	// Duplicate id conflicts; malformed configs and ids are rejected.
	if status, _ := h.do("POST", "/v1/sessions", CreateSessionRequest{ID: "feed-1", Window: 32}); status != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", status)
	}
	for _, req := range []CreateSessionRequest{
		{ID: "w", Window: 1},                            // window too small
		{ID: "bad/id", Window: 32},                      // id not URL-safe
		{ID: "", Window: 32},                            // id required
		{ID: "m", Window: 32, Method: "k-means"},        // unknown method
		{ID: "p", Window: 32, Prefix: -1},               // negative prefix
		{ID: "big", Window: maxWindow + 1},              // window over the ceiling
		{ID: "wk", Window: 32, Workers: maxWorkers + 1}, // worker bomb
	} {
		if status, body := h.do("POST", "/v1/sessions", req); status != http.StatusBadRequest {
			t.Fatalf("create %+v: status %d, body %s", req, status, body)
		}
	}

	createSession(h, "feed-2", 16, "")
	var list SessionList
	h.mustJSON("GET", "/v1/sessions", nil, http.StatusOK, &list)
	if len(list.Sessions) != 2 || list.Sessions[0].ID != "feed-1" || list.Sessions[1].ID != "feed-2" {
		t.Fatalf("bad list: %+v", list)
	}
	if list.Sessions[1].Method != "tmfg-dbht" {
		t.Fatalf("default method = %q", list.Sessions[1].Method)
	}

	var got SessionInfo
	h.mustJSON("GET", "/v1/sessions/feed-2", nil, http.StatusOK, &got)
	if got.ID != "feed-2" {
		t.Fatalf("bad get: %+v", got)
	}

	if status, _ := h.do("DELETE", "/v1/sessions/feed-2", nil); status != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	if status, _ := h.do("DELETE", "/v1/sessions/feed-2", nil); status != http.StatusNotFound {
		t.Fatal("double delete not 404")
	}
	if status, _ := h.do("GET", "/v1/sessions/feed-2", nil); status != http.StatusNotFound {
		t.Fatal("deleted session still visible")
	}
}

func TestPush(t *testing.T) {
	h := newTestServer(t, Options{})
	createSession(h, "s", 8, "complete-linkage")
	stream := ticks(t, 4, 10, 1)

	var pr PushResponse
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Sample: stream[0]}, http.StatusOK, &pr)
	if pr.Admitted != 1 || pr.Len != 1 || pr.Generation != 1 {
		t.Fatalf("bad push response: %+v", pr)
	}
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Samples: stream[1:4]}, http.StatusOK, &pr)
	if pr.Admitted != 3 || pr.Len != 4 || pr.Generation != 4 {
		t.Fatalf("bad batch response: %+v", pr)
	}

	// Validation errors: empty body, both fields, neither field, wrong
	// arity, unknown fields.
	for _, body := range []any{
		PushRequest{},
		PushRequest{Sample: stream[0], Samples: stream[:1]},
		PushRequest{Sample: []float64{1, 2}}, // arity 2, session has 4 series
		map[string]any{"sample": stream[0], "bogus": 1},
	} {
		if status, b := h.do("POST", "/v1/sessions/s/push", body); status != http.StatusBadRequest {
			t.Fatalf("push %+v: status %d body %s", body, status, b)
		}
	}

	// A batch with a poison tick (beyond the window's overflow-safe
	// magnitude bound) is admitted up to the poison, then 400s with the
	// failing index; the admitted prefix stays.
	bad := [][]float64{stream[4], {1, 1e200, 3, 4}, stream[5]}
	status, b := h.do("POST", "/v1/sessions/s/push", PushRequest{Samples: bad})
	if status != http.StatusBadRequest || !bytes.Contains(b, []byte("tick 1")) {
		t.Fatalf("poison batch: status %d body %s", status, b)
	}
	var info SessionInfo
	h.mustJSON("GET", "/v1/sessions/s", nil, http.StatusOK, &info)
	if info.Len != 5 || info.Generation != 5 {
		t.Fatalf("after poison batch: %+v", info)
	}

	if status, _ := h.do("POST", "/v1/sessions/nope/push", PushRequest{Sample: stream[0]}); status != http.StatusNotFound {
		t.Fatal("push to missing session not 404")
	}
}

// TestAggregateBudgets pins the cross-session ceilings: per-session caps
// alone don't bound the host, so Σ workers and Σ ring floats are budgeted.
func TestAggregateBudgets(t *testing.T) {
	h := newTestServer(t, Options{})
	// Worker budget: 4 × 1024 exhausts maxTotalWorkers; the next worker
	// reservation is 429 until a session is deleted.
	for i := 0; i < maxTotalWorkers/maxWorkers; i++ {
		h.mustJSON("POST", "/v1/sessions", CreateSessionRequest{
			ID: string(rune('a' + i)), Window: 8, Workers: maxWorkers,
		}, http.StatusCreated, nil)
	}
	over := CreateSessionRequest{ID: "over", Window: 8, Workers: 1}
	if status, b := h.do("POST", "/v1/sessions", over); status != http.StatusTooManyRequests {
		t.Fatalf("over-budget create: status %d body %s", status, b)
	}
	if status, _ := h.do("DELETE", "/v1/sessions/a", nil); status != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	h.mustJSON("POST", "/v1/sessions", over, http.StatusCreated, nil)

	// Ring budget (white-box; exercising it over HTTP would allocate GiBs):
	// reservations are all-or-nothing against the aggregate and released on
	// delete or an unadmitted first push.
	r := newRegistry()
	s1 := &Session{ID: "r1"}
	s2 := &Session{ID: "r2"}
	if !r.reserveRing(s1, maxTotalRingFloats) {
		t.Fatal("full-budget reservation refused")
	}
	if r.reserveRing(s2, 1) {
		t.Fatal("over-budget reservation accepted")
	}
	r.releaseRing(s1)
	if s1.ringReserved != 0 || !r.reserveRing(s2, 1) {
		t.Fatal("release did not return the budget")
	}
}

// TestRestoreChecksCreateCaps: a recovered session passes the same
// admission checks as a created one, the window cap included — a checkpoint
// may declare windows far past maxWindow.
func TestRestoreChecksCreateCaps(t *testing.T) {
	r := newRegistry()
	for _, tc := range []struct {
		id     string
		window int
		ok     bool
	}{
		{"within", maxWindow, true},
		{"over", maxWindow + 1, false},
	} {
		st, err := pfg.NewStreamer(tc.window, pfg.StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.restore(tc.id, SessionConfig{Window: tc.window}, st)
		if (err == nil) != tc.ok {
			t.Fatalf("restore of window %d: error %v, want ok=%v", tc.window, err, tc.ok)
		}
		if err != nil {
			st.Close()
		}
	}
	if r.Len() != 1 {
		t.Fatalf("registry holds %d sessions, want 1", r.Len())
	}
	r.closeAll()
}

// TestPushRingCap rejects a first push whose arity would, combined with the
// window, allocate an over-cap ring buffer.
func TestPushRingCap(t *testing.T) {
	h := newTestServer(t, Options{})
	createSession(h, "s", maxWindow, "complete-linkage")
	arity := maxRingFloats/maxWindow + 1
	status, b := h.do("POST", "/v1/sessions/s/push", PushRequest{Sample: make([]float64, arity)})
	if status != http.StatusBadRequest || !bytes.Contains(b, []byte("buffer cap")) {
		t.Fatalf("over-cap first push: status %d body %s", status, b)
	}
	// A modest arity on the same session is fine.
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Sample: make([]float64, 8)}, http.StatusOK, nil)
}

func TestSnapshot(t *testing.T) {
	h := newTestServer(t, Options{})
	createSession(h, "s", 16, "complete-linkage")
	stream := ticks(t, 6, 12, 2)

	// Empty and single-tick windows are 409 (come back later), not errors.
	if status, _ := h.do("GET", "/v1/sessions/s/snapshot?k=2", nil); status != http.StatusConflict {
		t.Fatal("empty window snapshot not 409")
	}
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Sample: stream[0]}, http.StatusOK, nil)
	if status, _ := h.do("GET", "/v1/sessions/s/snapshot?k=2", nil); status != http.StatusConflict {
		t.Fatal("1-tick window snapshot not 409")
	}

	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Samples: stream[1:]}, http.StatusOK, nil)
	var snap SnapshotResponse
	h.mustJSON("GET", "/v1/sessions/s/snapshot?k=2&k=3,4", nil, http.StatusOK, &snap)
	if snap.Session != "s" || snap.Method != "complete-linkage" || snap.Window != 16 ||
		snap.Generation != 12 || snap.Result == nil {
		t.Fatalf("bad snapshot: %+v", snap)
	}
	if snap.Result.N != 6 || len(snap.Result.Cuts) != 3 || len(snap.Result.Cuts["3"]) != 6 {
		t.Fatalf("bad result view: %+v", snap.Result)
	}

	// Second read is a cache hit with an identical view (modulo cuts).
	req, _ := http.NewRequest("GET", h.ts.URL+"/v1/sessions/s/snapshot?k=2&k=3,4", nil)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pfg-Cache") != "hit" {
		t.Fatalf("second read: status %d, cache %q", resp.StatusCode, resp.Header.Get("X-Pfg-Cache"))
	}
	var snap2 SnapshotResponse
	if err := json.Unmarshal(b, &snap2); err != nil {
		t.Fatal(err)
	}
	if snap2.Generation != snap.Generation {
		t.Fatalf("hit served generation %d, want %d", snap2.Generation, snap.Generation)
	}

	// A push bumps the generation: the next snapshot recomputes.
	runsBefore := h.srv.ins.snapshotRuns.Load()
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Sample: stream[0]}, http.StatusOK, nil)
	var snap3 SnapshotResponse
	h.mustJSON("GET", "/v1/sessions/s/snapshot", nil, http.StatusOK, &snap3)
	if snap3.Generation != 13 {
		t.Fatalf("post-push snapshot generation %d, want 13", snap3.Generation)
	}
	if runs := h.srv.ins.snapshotRuns.Load(); runs != runsBefore+1 {
		t.Fatalf("post-push snapshot ran %d times, want 1", runs-runsBefore)
	}
	if snap3.Result.Cuts != nil {
		t.Fatalf("cut-less snapshot has cuts: %+v", snap3.Result.Cuts)
	}

	// Cut errors are client errors.
	for _, q := range []string{"?k=0", "?k=abc", "?k=99"} {
		if status, _ := h.do("GET", "/v1/sessions/s/snapshot"+q, nil); status != http.StatusBadRequest {
			t.Fatalf("snapshot%s not 400", q)
		}
	}
	if status, _ := h.do("GET", "/v1/sessions/nope/snapshot", nil); status != http.StatusNotFound {
		t.Fatal("snapshot of missing session not 404")
	}
}

// TestSnapshotReadAllocs pins the allocations of the two hot read paths,
// served in-process into a reusable ResponseWriter: a cached full GET, and
// a header-only If-Generation re-poll, which the pre-router fast path
// answers with one allocation (the echoed header's value slice). The GET is
// counted over runs of snapSampleEvery requests, so each run holds one
// latency-timed request.
func TestSnapshotReadAllocs(t *testing.T) {
	h := newTestServer(t, Options{})
	pushServeSession(h, "a", "complete-linkage", 16, 16, 0)
	var snap SnapshotResponse
	h.mustJSON("GET", "/v1/sessions/a/snapshot?k=8", nil, http.StatusOK, &snap)
	handler := h.srv.Handler()
	w := &statusWriter{hdr: http.Header{}}
	serve := func(req *http.Request, want int) {
		clear(w.hdr)
		w.code = 0
		handler.ServeHTTP(w, req)
		if w.code != want {
			t.Fatalf("%s: status %d, want %d", req.URL, w.code, want)
		}
	}
	get := httptest.NewRequest("GET", "/v1/sessions/a/snapshot?k=8", nil)
	if got := testing.AllocsPerRun(16, func() {
		for range snapSampleEvery {
			serve(get, http.StatusOK)
		}
	}); got != 13*snapSampleEvery {
		t.Errorf("cached GET: %v allocs per %d requests, want %d", got, snapSampleEvery, 13*snapSampleEvery)
	}
	cond := httptest.NewRequest("GET", "/v1/sessions/a/snapshot", nil)
	cond.Header.Set("If-Generation", strconv.FormatUint(snap.Generation, 10))
	if got := testing.AllocsPerRun(64, func() { serve(cond, http.StatusNotModified) }); got != 1 {
		t.Errorf("If-Generation 304: %v allocs, want 1", got)
	}
}

// statusWriter is a reusable ResponseWriter that keeps only the status, so
// an allocation count sees the server's work and not a recorder's.
type statusWriter struct {
	hdr  http.Header
	code int
}

func (w *statusWriter) Header() http.Header { return w.hdr }

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

func TestSnapshotMinSeries(t *testing.T) {
	h := newTestServer(t, Options{})
	createSession(h, "s", 8, "tmfg-dbht")
	// 3 series is enough for HAC but not for TMFG: stay 409, never 500.
	stream := ticks(t, 3, 4, 3)
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Samples: stream}, http.StatusOK, nil)
	if status, b := h.do("GET", "/v1/sessions/s/snapshot", nil); status != http.StatusConflict {
		t.Fatalf("3-series tmfg snapshot: status %d body %s", status, b)
	}
}

func TestAdmissionControl(t *testing.T) {
	h := newTestServer(t, Options{MaxInflight: 2})
	createSession(h, "s", 8, "complete-linkage")
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Samples: ticks(t, 4, 4, 4)}, http.StatusOK, nil)

	// Fill the admission semaphore: every leader-path snapshot must now be
	// rejected with 429 + Retry-After, without queueing.
	h.srv.sem <- struct{}{}
	h.srv.sem <- struct{}{}
	req, _ := http.NewRequest("GET", h.ts.URL+"/v1/sessions/s/snapshot", nil)
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("saturated snapshot: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if got := h.srv.ins.snapshotRejected.Load(); got != 1 {
		t.Fatalf("SnapshotRejected = %d", got)
	}

	// Capacity freed: the same request computes.
	<-h.srv.sem
	<-h.srv.sem
	h.mustJSON("GET", "/v1/sessions/s/snapshot?k=2", nil, http.StatusOK, &SnapshotResponse{})
}

func TestClosedSessionIsGone(t *testing.T) {
	h := newTestServer(t, Options{})
	createSession(h, "s", 8, "complete-linkage")
	h.mustJSON("POST", "/v1/sessions/s/push", PushRequest{Samples: ticks(t, 4, 4, 5)}, http.StatusOK, nil)

	// Close the streamer underneath the registry entry (the window a
	// concurrent delete opens): both paths must map pfg.ErrClosed to 410.
	sess, _ := h.srv.reg.Get("s")
	sess.st.Close()
	if status, _ := h.do("GET", "/v1/sessions/s/snapshot", nil); status != http.StatusGone {
		t.Fatal("snapshot of closed session not 410")
	}
	if status, _ := h.do("POST", "/v1/sessions/s/push", PushRequest{Sample: make([]float64, 4)}); status != http.StatusGone {
		t.Fatal("push to closed session not 410")
	}
}

func TestHealthzStatsz(t *testing.T) {
	h := newTestServer(t, Options{})
	createSession(h, "a", 8, "complete-linkage")
	h.mustJSON("POST", "/v1/sessions/a/push", PushRequest{Samples: ticks(t, 4, 6, 6)}, http.StatusOK, nil)
	h.mustJSON("GET", "/v1/sessions/a/snapshot?k=2", nil, http.StatusOK, nil)
	h.mustJSON("GET", "/v1/sessions/a/snapshot?k=2", nil, http.StatusOK, nil)

	var health HealthResponse
	h.mustJSON("GET", "/healthz", nil, http.StatusOK, &health)
	if health.Status != "ok" || health.Sessions != 1 {
		t.Fatalf("bad healthz: %+v", health)
	}

	var stats StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &stats)
	if stats.Sessions != 1 || stats.SessionsCreated != 1 || stats.TicksPushed != 6 {
		t.Fatalf("bad statsz: %+v", stats)
	}
	if stats.SnapshotRequests != 2 || stats.SnapshotRuns != 1 || stats.SnapshotHits != 1 {
		t.Fatalf("bad snapshot counters: %+v", stats)
	}
	if stats.PushMeanUs <= 0 || stats.SnapshotRunMeanMs <= 0 {
		t.Fatalf("latency means not recorded: %+v", stats)
	}
	if len(stats.SessionInfos) != 1 || stats.SessionInfos[0].Generation != 6 {
		t.Fatalf("bad session infos: %+v", stats.SessionInfos)
	}
}

// TestWaiterRefcountCancel pins the cancellation rule of a coalesced run:
// the run is cancelled exactly when the last waiter abandons it, and the
// flight is unpublished in the same step so no later request can join a
// doomed run.
func TestWaiterRefcountCancel(t *testing.T) {
	var c snapCache
	c.init()
	cancelled := false
	f := &flight{key: 7, done: make(chan struct{}), cancel: func() { cancelled = true }, waiters: 2}
	c.inflight[f.key] = f

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.wait(ctx, f, cacheCoalesced); err == nil {
		t.Fatal("cancelled wait returned nil error")
	}
	if cancelled || f.waiters != 1 {
		t.Fatalf("first abandon: cancelled=%v waiters=%d", cancelled, f.waiters)
	}
	if c.inflight[f.key] != f {
		t.Fatal("flight unpublished while a waiter remains")
	}
	if _, _, _, err := c.wait(ctx, f, cacheCoalesced); err == nil {
		t.Fatal("cancelled wait returned nil error")
	}
	if !cancelled || f.waiters != 0 {
		t.Fatalf("last abandon: cancelled=%v waiters=%d", cancelled, f.waiters)
	}
	if _, ok := c.inflight[f.key]; ok {
		t.Fatal("abandoned flight still joinable")
	}
}
