package serve

// White-box tests of push-based delivery: conditional reads (If-Generation,
// 304, long-poll), the SSE subscription endpoint, the one-run/one-encode
// fan-out guarantee, slow-subscriber drop-to-latest, disconnect accounting,
// and drain semantics. Run with -race: the broadcaster, the per-connection
// writers, and the push path all touch the session concurrently.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pfg"
)

// sseEvent is one parsed Server-Sent Events frame.
type sseEvent struct {
	name string
	id   uint64
	data []byte
}

// sseClient is one open event stream plus a frame parser with a watchdog.
type sseClient struct {
	t      *testing.T
	resp   *http.Response
	br     *bufio.Reader
	cancel context.CancelFunc
}

// openEvents subscribes to an event stream and returns the parsed client.
func openEvents(h *testServer, path string) *sseClient {
	h.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", h.ts.URL+path, nil)
	if err != nil {
		cancel()
		h.t.Fatal(err)
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		cancel()
		h.t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		cancel()
		h.t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		cancel()
		h.t.Fatalf("GET %s: Content-Type %q", path, ct)
	}
	c := &sseClient{t: h.t, resp: resp, br: bufio.NewReader(resp.Body), cancel: cancel}
	h.t.Cleanup(c.close)
	return c
}

func (c *sseClient) close() {
	c.cancel()
	c.resp.Body.Close()
}

// next reads one frame, failing the test after a timeout instead of hanging.
func (c *sseClient) next() sseEvent {
	c.t.Helper()
	type result struct {
		ev  sseEvent
		err error
	}
	ch := make(chan result, 1)
	go func() {
		ev, err := readFrame(c.br)
		ch <- result{ev, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			c.t.Fatalf("reading SSE frame: %v", r.err)
		}
		return r.ev
	case <-time.After(10 * time.Second):
		c.t.Fatal("timed out waiting for an SSE frame")
	}
	return sseEvent{}
}

// readFrame parses one Server-Sent Events frame.
func readFrame(br *bufio.Reader) (sseEvent, error) {
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return ev, err
		}
		line = strings.TrimRight(line, "\n")
		if line == "" {
			if ev.name != "" {
				return ev, nil
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "event: "):
			ev.name = line[len("event: "):]
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.ParseUint(line[len("id: "):], 10, 64)
		case strings.HasPrefix(line, "data: "):
			ev.data = []byte(line[len("data: "):])
		}
	}
}

// pushServeSession creates a session, fills its window, and returns the
// remaining tick supply.
func pushServeSession(h *testServer, id, method string, n, window, extra int) [][]float64 {
	h.t.Helper()
	var info SessionInfo
	h.mustJSON("POST", "/v1/sessions", CreateSessionRequest{
		ID: id, Window: window, Method: method, RebuildEvery: -1,
	}, http.StatusCreated, &info)
	all := ticks(h.t, n, window+extra, 42)
	h.mustJSON("POST", "/v1/sessions/"+id+"/push", PushRequest{Samples: all[:window]},
		http.StatusOK, nil)
	return all[window:]
}

func TestConditionalSnapshot(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "cond", "complete-linkage", 16, 16, 4)

	var snap SnapshotResponse
	h.mustJSON("GET", "/v1/sessions/cond/snapshot?k=2", nil, http.StatusOK, &snap)
	gen := snap.Generation

	// Unchanged generation → 304 with no body, via header and query alike.
	for _, path := range []string{
		"/v1/sessions/cond/snapshot?k=2&if_generation=" + strconv.FormatUint(gen, 10),
	} {
		status, body := h.do("GET", path, nil)
		if status != http.StatusNotModified || len(body) != 0 {
			t.Fatalf("conditional GET %s: status %d body %q, want 304 empty", path, status, body)
		}
	}
	req, _ := http.NewRequest("GET", h.ts.URL+"/v1/sessions/cond/snapshot?k=2", nil)
	req.Header.Set("If-Generation", strconv.FormatUint(gen, 10))
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-Generation header: status %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Pfg-Generation"); got != strconv.FormatUint(gen, 10) {
		t.Fatalf("304 X-Pfg-Generation = %q, want %d", got, gen)
	}
	// Header with no query string at all: the pre-router fast path
	// (tryNotModifiedFast) answers this shape, with the same contract.
	req, _ = http.NewRequest("GET", h.ts.URL+"/v1/sessions/cond/snapshot", nil)
	req.Header.Set("If-Generation", strconv.FormatUint(gen, 10))
	resp, err = h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("fast-path conditional: status %d, want 304", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Pfg-Generation"); got != strconv.FormatUint(gen, 10) {
		t.Fatalf("fast-path 304 X-Pfg-Generation = %q, want %d", got, gen)
	}
	if got := h.srv.ins.notModified.Load(); got != 3 {
		t.Fatalf("NotModified = %d, want 3", got)
	}

	// A stale precondition serves the full body.
	status, _ := h.do("GET", "/v1/sessions/cond/snapshot?k=2&if_generation="+strconv.FormatUint(gen-1, 10), nil)
	if status != http.StatusOK {
		t.Fatalf("stale conditional: status %d, want 200", status)
	}

	// Malformed precondition is a 400, not a silent full read.
	if status, _ := h.do("GET", "/v1/sessions/cond/snapshot?k=2&if_generation=nope", nil); status != http.StatusBadRequest {
		t.Fatalf("bad if_generation: status %d, want 400", status)
	}

	// Long-poll: no push within the wait → 304 after the timeout.
	start := time.Now()
	status, _ = h.do("GET", fmt.Sprintf("/v1/sessions/cond/snapshot?k=2&if_generation=%d&wait=50ms", gen), nil)
	if status != http.StatusNotModified {
		t.Fatalf("long-poll timeout: status %d, want 304", status)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("long-poll returned before its wait elapsed")
	}
	if h.srv.ins.longPollWaits.Load() != 1 || h.srv.ins.longPollTimeouts.Load() != 1 {
		t.Fatalf("long-poll counters = %d/%d, want 1/1",
			h.srv.ins.longPollWaits.Load(), h.srv.ins.longPollTimeouts.Load())
	}

	// Long-poll: a push during the wait releases the request with the fresh
	// snapshot.
	done := make(chan SnapshotResponse, 1)
	go func() {
		var s2 SnapshotResponse
		h.mustJSON("GET", fmt.Sprintf("/v1/sessions/cond/snapshot?k=2&if_generation=%d&wait=10s", gen),
			nil, http.StatusOK, &s2)
		done <- s2
	}()
	time.Sleep(20 * time.Millisecond) // let the poller park
	h.mustJSON("POST", "/v1/sessions/cond/push", PushRequest{Sample: rest[0]}, http.StatusOK, nil)
	select {
	case s2 := <-done:
		if s2.Generation != gen+1 {
			t.Fatalf("long-poll released at generation %d, want %d", s2.Generation, gen+1)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("long-poll never released after a push")
	}
}

// TestEventsDeltaDelivery is the end-to-end delta contract: subscribe, push
// a tick, receive a delta chained to the initial snapshot, and reconstruct
// — byte-identically — the full view the GET path serves for the same
// generation.
func TestEventsDeltaDelivery(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "feed", "tmfg-dbht", 32, 32, 4)

	c := openEvents(h, "/v1/sessions/feed/events?k=4")
	first := c.next()
	if first.name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", first.name)
	}
	var base SnapshotResponse
	if err := json.Unmarshal(first.data, &base); err != nil {
		t.Fatal(err)
	}
	if first.id != base.Generation {
		t.Fatalf("frame id %d ≠ body generation %d", first.id, base.Generation)
	}

	h.mustJSON("POST", "/v1/sessions/feed/push", PushRequest{Sample: rest[0]}, http.StatusOK, nil)
	ev := c.next()
	if ev.name != "delta" {
		t.Fatalf("post-push event %q, want delta", ev.name)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(ev.data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.FromGeneration != base.Generation || dr.Generation != base.Generation+1 {
		t.Fatalf("delta spans %d→%d, want %d→%d",
			dr.FromGeneration, dr.Generation, base.Generation, base.Generation+1)
	}
	rec, err := base.Result.ApplyDelta(dr.Delta)
	if err != nil {
		t.Fatal(err)
	}
	var full SnapshotResponse
	h.mustJSON("GET", "/v1/sessions/feed/snapshot?k=4", nil, http.StatusOK, &full)
	if full.Generation != dr.Generation {
		t.Fatalf("GET served generation %d, want %d", full.Generation, dr.Generation)
	}
	want, err := json.Marshal(full.Result)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("delta reconstruction diverged from the GET body\n got: %s\nwant: %s", got, want)
	}
	if h.srv.ins.eventsDelta.Load() == 0 {
		t.Fatal("EventsDelta counter never moved")
	}
}

// TestEventsOneRunManySubscribers pins the fan-out economy: one generation
// bump costs exactly one clustering run and one body encode no matter how
// many subscribers receive it.
func TestEventsOneRunManySubscribers(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "fan", "complete-linkage", 16, 16, 4)

	// Prime the generation cache so the subscribers' initial snapshots are
	// all cache hits.
	h.mustJSON("GET", "/v1/sessions/fan/snapshot?k=2", nil, http.StatusOK, nil)

	const subscribers = 32
	clients := make([]*sseClient, subscribers)
	for i := range clients {
		clients[i] = openEvents(h, "/v1/sessions/fan/events?k=2")
		if ev := clients[i].next(); ev.name != "snapshot" {
			t.Fatalf("subscriber %d first event %q, want snapshot", i, ev.name)
		}
	}
	runs0, enc0 := h.srv.ins.snapshotRuns.Load(), h.srv.ins.snapshotEncodes.Load()

	h.mustJSON("POST", "/v1/sessions/fan/push", PushRequest{Sample: rest[0]}, http.StatusOK, nil)
	for i, c := range clients {
		ev := c.next()
		if ev.name != "delta" && ev.name != "snapshot" {
			t.Fatalf("subscriber %d got event %q", i, ev.name)
		}
	}
	if runs := h.srv.ins.snapshotRuns.Load() - runs0; runs != 1 {
		t.Fatalf("one bump cost %d clustering runs, want 1", runs)
	}
	if encs := h.srv.ins.snapshotEncodes.Load() - enc0; encs != 1 {
		t.Fatalf("one bump cost %d body encodes, want 1", encs)
	}
}

// TestSubscriberDropToLatest pins the bounded-queue policy in isolation: a
// queue past its cap discards everything pending in favor of the newest
// event and counts what it dropped; the broadcaster side (offer) never
// blocks regardless.
func TestSubscriberDropToLatest(t *testing.T) {
	sub := &subscriber{signal: make(chan struct{}, 1)}
	const total = 40
	for g := 1; g <= total; g++ {
		sub.offer(&outEvent{gen: uint64(g)})
	}
	evs, dropped := sub.take()
	if len(evs) == 0 || len(evs) > subQueueCap {
		t.Fatalf("queue drained %d events, want 1..%d", len(evs), subQueueCap)
	}
	if got := evs[len(evs)-1].gen; got != total {
		t.Fatalf("newest queued generation %d, want %d", got, total)
	}
	if wantDropped := uint64(total - len(evs)); dropped != wantDropped {
		t.Fatalf("dropped = %d, want %d", dropped, wantDropped)
	}
	if evs2, d2 := sub.take(); len(evs2) != 0 || d2 != 0 {
		t.Fatal("second take was not empty")
	}
}

// TestEventsSlowSubscriberLiveness: a subscriber that never reads its
// connection must not stall delivery to healthy ones.
func TestEventsSlowSubscriberLiveness(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "slow", "complete-linkage", 8, 16, 24)

	// The stalled subscriber: opened, never read again.
	openEvents(h, "/v1/sessions/slow/events?k=2")
	healthy := openEvents(h, "/v1/sessions/slow/events?k=2")
	if ev := healthy.next(); ev.name != "snapshot" {
		t.Fatalf("healthy first event %q, want snapshot", ev.name)
	}

	var info SessionInfo
	h.mustJSON("GET", "/v1/sessions/slow", nil, http.StatusOK, &info)
	finalGen := info.Generation + uint64(len(rest))
	h.mustJSON("POST", "/v1/sessions/slow/push", PushRequest{Samples: rest}, http.StatusOK, nil)

	// The healthy subscriber reaches the final generation (drop-to-latest
	// may skip intermediate ones on its own queue too — only progress to
	// the end matters).
	for {
		if ev := healthy.next(); ev.id == finalGen {
			break
		}
	}
}

// TestEventsDisconnectReleasesCharge: closing the client unregisters the
// subscriber and returns its slot to the subscriber budget.
func TestEventsDisconnectReleasesCharge(t *testing.T) {
	h := newTestServer(t, Options{})
	pushServeSession(h, "bye", "complete-linkage", 8, 16, 0)

	c := openEvents(h, "/v1/sessions/bye/events?k=2")
	c.next() // initial snapshot: the stream is established
	if got := h.srv.ins.subscribers.Load(); got != 1 {
		t.Fatalf("Subscribers gauge = %d, want 1", got)
	}
	h.srv.reg.mu.Lock()
	inUse := h.srv.reg.subsInUse
	h.srv.reg.mu.Unlock()
	if inUse != 1 {
		t.Fatalf("subsInUse = %d, want 1", inUse)
	}

	c.close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.srv.reg.mu.Lock()
		inUse = h.srv.reg.subsInUse
		h.srv.reg.mu.Unlock()
		if inUse == 0 && h.srv.ins.subscribers.Load() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("disconnect never released: gauge %d, subsInUse %d",
				h.srv.ins.subscribers.Load(), inUse)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEventsDrain: Drain ends every stream with a terminal bye frame, so
// http.Server.Shutdown can complete with subscribers attached.
func TestEventsDrain(t *testing.T) {
	h := newTestServer(t, Options{})
	pushServeSession(h, "drain", "complete-linkage", 8, 16, 0)

	c := openEvents(h, "/v1/sessions/drain/events?k=2")
	c.next() // initial snapshot
	h.srv.Drain()
	if ev := c.next(); ev.name != "bye" {
		t.Fatalf("post-drain event %q, want bye", ev.name)
	}
	// New subscriptions are refused once draining.
	if status, _ := h.do("GET", "/v1/sessions/drain/events?k=2", nil); status != http.StatusServiceUnavailable {
		t.Fatalf("subscribe while draining: status %d, want 503", status)
	}
}

// TestEventsSessionDeleted: deleting the session terminates its streams.
func TestEventsSessionDeleted(t *testing.T) {
	h := newTestServer(t, Options{})
	pushServeSession(h, "gone", "complete-linkage", 8, 16, 0)

	c := openEvents(h, "/v1/sessions/gone/events?k=2")
	c.next() // initial snapshot
	h.mustJSON("DELETE", "/v1/sessions/gone", nil, http.StatusNoContent, nil)
	if ev := c.next(); ev.name != "bye" {
		t.Fatalf("post-delete event %q, want bye", ev.name)
	}
}

// TestEventsBadRequests covers the subscription endpoint's error surface.
func TestEventsBadRequests(t *testing.T) {
	h := newTestServer(t, Options{})
	pushServeSession(h, "errs", "complete-linkage", 8, 16, 0)

	if status, _ := h.do("GET", "/v1/sessions/nope/events", nil); status != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", status)
	}
	if status, _ := h.do("GET", "/v1/sessions/errs/events?k=0", nil); status != http.StatusBadRequest {
		t.Fatalf("bad cut: status %d, want 400", status)
	}
	if status, _ := h.do("GET", "/v1/sessions/errs/events?k=99", nil); status != http.StatusBadRequest {
		t.Fatalf("over-range cut: status %d, want 400", status)
	}
}

// holdDelivery keeps the session's delivery goroutine from starting, so a
// test drives the delivery step itself, one generation at a time.
func holdDelivery(sess *Session) {
	sess.bcast.mu.Lock()
	sess.bcast.running = true
	sess.bcast.mu.Unlock()
}

// deliverNow runs one delivery step for the session's current generation.
func deliverNow(t *testing.T, h *testServer, sess *Session) {
	t.Helper()
	if err := sess.bcast.deliver(h.srv, sess.st.Generation()); err != nil {
		t.Fatal(err)
	}
}

// takeOne returns the one event queued for sub.
func takeOne(t *testing.T, sub *subscriber) *outEvent {
	t.Helper()
	evs, dropped := sub.take()
	if len(evs) != 1 || dropped != 0 {
		t.Fatalf("%d events queued (%d dropped), want 1", len(evs), dropped)
	}
	return evs[0]
}

// streamView is what a subscriber holds: the generation and view its stream
// last delivered.
type streamView struct {
	gen  uint64
	view *pfg.ResultJSON
}

// follow applies ev the way the event writer picks its frame (the delta iff
// it extends the held generation) and returns the frame's name.
func (sv *streamView) follow(t *testing.T, ev *outEvent) string {
	t.Helper()
	frame := ev.full
	if ev.delta != nil && ev.fromGen == sv.gen {
		frame = ev.delta
	}
	fe, err := readFrame(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatal(err)
	}
	if fe.id != ev.gen {
		t.Fatalf("%s frame id %d, want %d", fe.name, fe.id, ev.gen)
	}
	switch fe.name {
	case "snapshot":
		var snap SnapshotResponse
		if err := json.Unmarshal(fe.data, &snap); err != nil {
			t.Fatal(err)
		}
		sv.view = snap.Result
	case "delta":
		var dr DeltaResponse
		if err := json.Unmarshal(fe.data, &dr); err != nil {
			t.Fatal(err)
		}
		if dr.FromGeneration != sv.gen || dr.Generation != ev.gen {
			t.Fatalf("delta spans %d→%d, subscriber holds %d", dr.FromGeneration, dr.Generation, sv.gen)
		}
		if sv.view, err = sv.view.ApplyDelta(dr.Delta); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unexpected %q frame", fe.name)
	}
	sv.gen = ev.gen
	return fe.name
}

// matchesGET requires the held view to equal the result the GET path serves
// at path, for the same generation.
func (sv *streamView) matchesGET(t *testing.T, h *testServer, path string) {
	t.Helper()
	var full SnapshotResponse
	h.mustJSON("GET", path, nil, http.StatusOK, &full)
	if full.Generation != sv.gen {
		t.Fatalf("GET %s served generation %d, stream holds %d", path, full.Generation, sv.gen)
	}
	want, err := json.Marshal(full.Result)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(sv.view)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("stream view at generation %d diverged from GET %s\n got: %s\nwant: %s", sv.gen, path, got, want)
	}
}

// TestDeliverDeltaAfterSkippedGeneration drives delivery by hand. A GET
// builds a body for a generation the stream skips; the next event must still
// carry a delta from the generation the subscriber holds, and rebuild the
// GET body.
func TestDeliverDeltaAfterSkippedGeneration(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "skip", "tmfg-dbht", 32, 32, 4)
	sess, _ := h.srv.reg.Get("skip")
	holdDelivery(sess)
	sub, err := sess.bcast.subscribe(h.srv, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	deliverNow(t, h, sess)
	var sv streamView
	if name := sv.follow(t, takeOne(t, sub)); name != "snapshot" {
		t.Fatalf("first event sent as %q, want snapshot", name)
	}
	held := sv.gen

	h.mustJSON("POST", "/v1/sessions/skip/push", PushRequest{Sample: rest[0]}, http.StatusOK, nil)
	h.mustJSON("GET", "/v1/sessions/skip/snapshot?k=4", nil, http.StatusOK, nil)
	h.mustJSON("POST", "/v1/sessions/skip/push", PushRequest{Sample: rest[1]}, http.StatusOK, nil)
	deliverNow(t, h, sess)
	ev := takeOne(t, sub)
	if ev.gen != held+2 || ev.delta == nil || ev.fromGen != held {
		t.Fatalf("event for generation %d carries a delta from %d (present: %t), want one from %d to %d",
			ev.gen, ev.fromGen, ev.delta != nil, held, held+2)
	}
	if name := sv.follow(t, ev); name != "delta" {
		t.Fatalf("event sent as %q, want delta", name)
	}
	sv.matchesGET(t, h, "/v1/sessions/skip/snapshot?k=4")
}

// TestDeliverCutSetChains: each cut set's deltas extend its own last event.
// A second cut set joins a generation after the first, and a GET builds a
// body for it at a generation the stream skips; every event still chains
// onto the previous event of its own cut set and rebuilds the GET body.
func TestDeliverCutSetChains(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "chains", "tmfg-dbht", 32, 32, 4)
	sess, _ := h.srv.reg.Get("chains")
	holdDelivery(sess)
	const pathA, pathB = "/v1/sessions/chains/snapshot?k=4", "/v1/sessions/chains/snapshot?k=2,8"
	subA, err := sess.bcast.subscribe(h.srv, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	var a, b streamView
	deliverNow(t, h, sess)
	a.follow(t, takeOne(t, subA))
	push := func(x []float64) {
		h.mustJSON("POST", "/v1/sessions/chains/push", PushRequest{Sample: x}, http.StatusOK, nil)
	}

	push(rest[0])
	subB, err := sess.bcast.subscribe(h.srv, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	deliverNow(t, h, sess)
	if name := a.follow(t, takeOne(t, subA)); name != "delta" {
		t.Fatalf("first cut set's second event sent as %q, want delta", name)
	}
	evB := takeOne(t, subB)
	if evB.delta != nil {
		t.Fatalf("a new cut set's first event carries a delta from %d", evB.fromGen)
	}
	b.follow(t, evB)
	a.matchesGET(t, h, pathA)
	b.matchesGET(t, h, pathB)

	push(rest[1])
	h.mustJSON("GET", pathB, nil, http.StatusOK, nil)
	push(rest[2])
	deliverNow(t, h, sess)
	for _, c := range []struct {
		name string
		sv   *streamView
		sub  *subscriber
		path string
	}{{"k=4", &a, subA, pathA}, {"k=2,8", &b, subB, pathB}} {
		ev := takeOne(t, c.sub)
		if ev.delta == nil || ev.fromGen != c.sv.gen {
			t.Fatalf("%s: event for generation %d carries a delta from %d (present: %t), want one from %d",
				c.name, ev.gen, ev.fromGen, ev.delta != nil, c.sv.gen)
		}
		if name := c.sv.follow(t, ev); name != "delta" {
			t.Fatalf("%s: event sent as %q, want delta", c.name, name)
		}
		c.sv.matchesGET(t, h, c.path)
	}
}

// TestEventsLateJoiner: a subscriber joining a cut set after deliveries is
// sent the cut set's current event as its first frame, with no clustering
// run or encode of its own, and the next delta chains onto that frame.
func TestEventsLateJoiner(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "late", "tmfg-dbht", 32, 32, 4)
	early := openEvents(h, "/v1/sessions/late/events?k=4")
	if ev := early.next(); ev.name != "snapshot" {
		t.Fatalf("first event %q, want snapshot", ev.name)
	}
	h.mustJSON("POST", "/v1/sessions/late/push", PushRequest{Sample: rest[0]}, http.StatusOK, nil)
	cur := early.next()
	runs0, enc0 := h.srv.ins.snapshotRuns.Load(), h.srv.ins.snapshotEncodes.Load()

	late := openEvents(h, "/v1/sessions/late/events?k=4")
	first := late.next()
	if first.name != "snapshot" || first.id != cur.id {
		t.Fatalf("late joiner's first event %q for generation %d, want snapshot for %d", first.name, first.id, cur.id)
	}
	if runs, encs := h.srv.ins.snapshotRuns.Load()-runs0, h.srv.ins.snapshotEncodes.Load()-enc0; runs != 0 || encs != 0 {
		t.Fatalf("joining cost %d clustering runs and %d encodes, want 0 and 0", runs, encs)
	}
	var snap SnapshotResponse
	if err := json.Unmarshal(first.data, &snap); err != nil {
		t.Fatal(err)
	}
	sv := streamView{gen: first.id, view: snap.Result}
	sv.matchesGET(t, h, "/v1/sessions/late/snapshot?k=4")

	h.mustJSON("POST", "/v1/sessions/late/push", PushRequest{Sample: rest[1]}, http.StatusOK, nil)
	ev := late.next()
	if ev.name != "delta" {
		t.Fatalf("late joiner's second event %q, want delta", ev.name)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(ev.data, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.FromGeneration != sv.gen {
		t.Fatalf("delta from %d, late joiner holds %d", dr.FromGeneration, sv.gen)
	}
	var err error
	if sv.view, err = sv.view.ApplyDelta(dr.Delta); err != nil {
		t.Fatal(err)
	}
	sv.gen = dr.Generation
	sv.matchesGET(t, h, "/v1/sessions/late/snapshot?k=4")
	if ev := early.next(); ev.id != sv.gen {
		t.Fatalf("early subscriber's event for generation %d, want %d", ev.id, sv.gen)
	}
}

// TestEventsCutSetStateBounded: a cut set lives only while it has
// subscribers. Four clients subscribe to and leave 100 distinct cut sets
// between them while ticks land; afterwards no per-cut-set state is left.
func TestEventsCutSetStateBounded(t *testing.T) {
	h := newTestServer(t, Options{})
	rest := pushServeSession(h, "many", "complete-linkage", 16, 16, 50)
	sess, _ := h.srv.reg.Get("many")
	const clients, cutSets = 4, 100
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1 + c; i <= cutSets; i += clients {
				// The set bits of i pick a distinct subset of cuts 1..7.
				var ks []string
				for j := range 7 {
					if i>>j&1 == 1 {
						ks = append(ks, strconv.Itoa(j+1))
					}
				}
				ev, err := firstFrame(h, "/v1/sessions/many/events?k="+strings.Join(ks, ","))
				if err != nil || ev.name != "snapshot" {
					t.Errorf("cut set %v: first event %q, error %v; want a snapshot", ks, ev.name, err)
					return
				}
			}
		}()
	}
	for _, x := range rest {
		h.mustJSON("POST", "/v1/sessions/many/push", PushRequest{Sample: x}, http.StatusOK, nil)
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		sess.bcast.mu.Lock()
		sets, subs := len(sess.bcast.sets), sess.bcast.subs
		sess.bcast.mu.Unlock()
		if sets == 0 && subs == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after every stream closed: %d cut sets and %d subscribers remain", sets, subs)
		}
	}
}

// firstFrame opens an event stream, reads its first frame and closes the
// stream. It may run off the test's goroutine.
func firstFrame(h *testServer, path string) (sseEvent, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", h.ts.URL+path, nil)
	if err != nil {
		return sseEvent{}, err
	}
	resp, err := h.ts.Client().Do(req)
	if err != nil {
		return sseEvent{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sseEvent{}, fmt.Errorf("status %d", resp.StatusCode)
	}
	return readFrame(bufio.NewReader(resp.Body))
}
