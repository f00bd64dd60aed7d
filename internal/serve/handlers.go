package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"pfg"
)

// writeJSON marshals v and writes it with the given status. Bodies are
// fully marshaled before the header goes out so an encoding failure can
// still produce a 500.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(b, '\n'))
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeStatus maps a body-decode failure to its status: an over-cap body
// is a size problem (413, the client should split and retry), everything
// else is malformed input (400).
func decodeStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// decodeBody strictly decodes one JSON value, bounded by MaxBodyBytes.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the value is a malformed request, not data to
	// silently ignore.
	if dec.More() {
		return fmt.Errorf("unexpected data after the JSON body")
	}
	return nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:   "ok",
		UptimeS:  time.Since(s.start).Seconds(),
		Sessions: s.reg.Len(),
	})
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	v := s.ins.view()
	sessions := s.reg.List()
	v.Sessions = len(sessions)
	v.SessionInfos = make([]SessionInfo, len(sessions))
	for i, sess := range sessions {
		v.SessionInfos[i] = sess.Info()
		if is, ok := sess.st.IncrementalStats(); ok {
			v.IncrementalHits += is.Hits
			v.IncrementalFulls += is.Fulls
			v.IncrementalFullsDrift += is.FullDrift
			v.IncrementalFullsStale += is.FullStale
			v.IncrementalFullsBoundary += is.FullInit + is.FullBoundary
		}
	}
	writeJSON(w, http.StatusOK, v)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req CreateSessionRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), "bad request body: %v", err)
		return
	}
	cfg, err := req.config()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sess, err := s.reg.Create(req.ID, cfg)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, errExists) {
			status = http.StatusConflict
		} else if errors.Is(err, errTooManySessions) || errors.Is(err, errWorkerBudget) {
			status = http.StatusTooManyRequests
		}
		writeError(w, status, "%v", err)
		return
	}
	s.ins.sessionsCreated.Add(1)
	// Instrumentation and durability both attach before the create is
	// acknowledged: no acknowledged push can slip in front of the WAL, and
	// none can go untimed.
	s.attachMetrics(sess)
	s.attachDurability(sess)
	writeJSON(w, http.StatusCreated, sess.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sessions := s.reg.List()
	out := SessionList{Sessions: make([]SessionInfo, len(sessions))}
	for i, sess := range sessions {
		out.Sessions[i] = sess.Info()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	writeJSON(w, http.StatusOK, sess.Info())
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Delete(id) {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	s.detachMetrics(id)
	s.ins.sessionsDeleted.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handlePush(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	var req PushRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeError(w, decodeStatus(err), "bad request body: %v", err)
		return
	}
	batch := req.Samples
	if req.Sample != nil {
		if req.Samples != nil {
			writeError(w, http.StatusBadRequest, "set exactly one of sample and samples")
			return
		}
		batch = [][]float64{req.Sample}
	}
	if len(batch) == 0 {
		writeError(w, http.StatusBadRequest, "empty push: set sample or samples")
		return
	}

	// One writer at a time per session (the Streamer contract); the whole
	// batch is applied under the lock so interleaved pushers cannot shuffle
	// a batch's tick order. The first admitted push fixes the series count
	// and allocates the window ring, so the ring-size cap is checked here —
	// under the lock, where Series()==0 cannot race another first push.
	sess.pushMu.Lock()
	firstPush := sess.st.Series() == 0
	if firstPush {
		need := sess.cfg.Window * len(batch[0])
		if need > maxRingFloats {
			sess.pushMu.Unlock()
			writeError(w, http.StatusBadRequest,
				"window (%d) × series (%d) exceeds the per-session buffer cap of %d floats",
				sess.cfg.Window, len(batch[0]), maxRingFloats)
			return
		}
		if !s.reg.reserveRing(sess, need) {
			sess.pushMu.Unlock()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests,
				"aggregate window-buffer budget exhausted; delete sessions or retry later")
			return
		}
	}
	admitted, pushErr := 0, error(nil)
	start := time.Now()
	for _, x := range batch {
		if pushErr = sess.st.Push(x); pushErr != nil {
			break
		}
		admitted++
		if sess.dur != nil {
			// Log the admitted push with its post-push generation stamp —
			// the stamp WAL replay re-verifies push by push.
			sess.dur.noteAdmitted(sess.st.Generation(), x)
		}
	}
	if sess.dur != nil && admitted > 0 {
		// The batch is applied: make its WAL frames durable (per the fsync
		// policy) and checkpoint if the cadence came due.
		sess.dur.afterBatch(sess)
	}
	elapsed := time.Since(start)
	s.ins.pushBatchNs.Observe(uint64(elapsed))
	if slow := s.opts.LogSlowTick; slow > 0 && elapsed >= slow && admitted > 0 {
		logSlowPush(sess, admitted, elapsed)
	}
	if firstPush && sess.st.Series() == 0 {
		// Nothing was admitted, so no ring was allocated: hand the
		// reservation back.
		s.reg.releaseRing(sess)
	}
	// Capture the response state before releasing the writer lock, so the
	// reported Len/Generation are this push's landing state, not a
	// concurrent pusher's.
	curLen, curGen := sess.st.Len(), sess.st.Generation()
	sess.pushMu.Unlock()

	s.ins.ticksPushed.Add(uint64(admitted))
	if pushErr != nil {
		// Only the tick that was actually examined and refused counts as
		// rejected; the aborted remainder of the batch was never validated.
		s.ins.pushRejected.Add(1)
		if errors.Is(pushErr, pfg.ErrClosed) {
			writeError(w, http.StatusGone, "session deleted")
			return
		}
		// Ticks are applied in order and the first rejected tick aborts the
		// rest, so `admitted` is also the failing tick's index.
		writeError(w, http.StatusBadRequest, "tick %d: %v (%d ticks admitted)", admitted, pushErr, admitted)
		return
	}
	writeJSON(w, http.StatusOK, PushResponse{
		Admitted:   admitted,
		Len:        curLen,
		Generation: curGen,
	})
}

// parseCuts parses the snapshot query's k parameters: repeated (?k=2&k=8)
// and comma-separated (?k=2,8) forms compose.
func parseCuts(vals []string) ([]int, error) {
	var ks []int
	for _, v := range vals {
		for _, part := range strings.Split(v, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k, err := strconv.Atoi(part)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("bad cut %q: want a positive integer", part)
			}
			ks = append(ks, k)
		}
	}
	return ks, nil
}

// maxLongPoll caps the ?wait= long-poll duration so parked conditional
// reads cannot hold connections indefinitely.
const maxLongPoll = 60 * time.Second

// parseIfGeneration reads the conditional-read precondition: the
// If-Generation header, or the if_generation query parameter for clients
// that cannot set headers (EventSource, curl one-liners).
func parseIfGeneration(r *http.Request) (uint64, bool, error) {
	v := r.Header.Get("If-Generation")
	if v == "" {
		v = r.URL.Query().Get("if_generation")
	}
	if v == "" {
		return 0, false, nil
	}
	g, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad If-Generation %q: want an unsigned integer", v)
	}
	return g, true, nil
}

// waitForChange parks until the session's generation moves off ifGen, the
// wait budget d runs out, the requester gives up, or the server drains.
// Returns the last observed generation (== ifGen on timeout). The watch
// channel is fetched before the generation is read, so a bump racing the
// park is never missed.
func (s *Server) waitForChange(ctx context.Context, sess *Session, ifGen uint64, d time.Duration) uint64 {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		gen, ch := sess.st.Watch()
		if gen != ifGen {
			return gen
		}
		select {
		case <-ch:
		case <-timer.C:
			return ifGen
		case <-ctx.Done():
			return ifGen
		case <-s.drainCh:
			return ifGen
		case <-sess.done:
			// Deleted mid-wait: Generation now reports 0 ≠ ifGen, so the
			// caller falls through to the normal path and surfaces 410.
			return sess.st.Generation()
		}
	}
}

// writeNotModified is the zero-body fast path of a conditional read: the
// client's generation still stamps the window, so its snapshot is current.
func (s *Server) writeNotModified(w http.ResponseWriter, gen uint64) {
	s.ins.notModified.Add(1)
	w.Header().Set("X-Pfg-Generation", strconv.FormatUint(gen, 10))
	w.WriteHeader(http.StatusNotModified)
}

// tryNotModifiedFast serves GET /v1/sessions/{id}/snapshot with a matching
// If-Generation header — the request a re-poll storm consists almost
// entirely of — without the router's per-request path parsing. It only ever
// answers the unchanged case: any other shape (query parameters, an
// escaped or nested id, a malformed or stale generation, an unknown
// session) returns false and takes the routed path, which re-derives the
// same answer along with its error handling.
func (s *Server) tryNotModifiedFast(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodGet || r.URL.RawQuery != "" {
		return false
	}
	v := r.Header.Get("If-Generation")
	if v == "" {
		return false
	}
	const pre, suf = "/v1/sessions/", "/snapshot"
	path := r.URL.Path
	if len(path) <= len(pre)+len(suf) || path[:len(pre)] != pre || path[len(path)-len(suf):] != suf {
		return false
	}
	id := path[len(pre) : len(path)-len(suf)]
	if strings.ContainsAny(id, "/%") {
		return false
	}
	g, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return false
	}
	sess, ok := s.reg.Get(id)
	if !ok {
		return false
	}
	if cur := sess.st.Generation(); cur == 0 || cur != g {
		return false
	}
	s.ins.conditionalRequests.Add(1)
	s.ins.notModified.Add(1)
	// The client's header string is the generation it matched against —
	// echo it back instead of re-formatting the number.
	w.Header().Set("X-Pfg-Generation", v)
	w.WriteHeader(http.StatusNotModified)
	return true
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	// Request timing starts here, for a 1-in-8 sample of requests. The
	// clock reads are the main per-request cost metrics add to this path,
	// and the budget is ≤ 5% over the same path untimed: a cached hit is
	// ~2µs, two clock reads are ~70ns, so always-on timing would eat most
	// of the budget by itself. Systematic sampling keeps the latency distribution unbiased
	// (the sequence counter has no correlation with request cost) at ~1%
	// overhead; the expensive outcomes are independently always-timed by
	// pfg_snapshot_run_ns on the run goroutine. Timing is a delta of
	// offsets from the server's monotonic start mark: time.Since on a
	// monotonic time.Time is one clock read, half the cost of a time.Now
	// pair.
	var reqStart time.Duration
	timed := false
	if s.snapSeq.Add(1)&(snapSampleEvery-1) == 0 {
		timed = true
		reqStart = time.Since(s.start)
	}
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}

	// Conditional read: If-Generation names the generation the client
	// already holds. While it still stamps the window the response is a 304
	// with zero body work — no cut parsing, no cache probe, no marshaling —
	// optionally after parking up to ?wait= for the next bump (long-poll).
	ifGen, conditional, err := parseIfGeneration(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if conditional {
		s.ins.conditionalRequests.Add(1)
		cur := sess.st.Generation()
		if cur != 0 && cur == ifGen {
			// RawQuery is checked first so a header-only conditional re-poll
			// (the hot unchanged path) never pays a query-string parse.
			var waitStr string
			if r.URL.RawQuery != "" {
				waitStr = r.URL.Query().Get("wait")
			}
			if waitStr != "" {
				d, err := time.ParseDuration(waitStr)
				if err != nil || d < 0 {
					writeError(w, http.StatusBadRequest, "bad wait %q: want a duration like 5s", waitStr)
					return
				}
				if d > maxLongPoll {
					d = maxLongPoll
				}
				s.ins.longPollWaits.Add(1)
				cur = s.waitForChange(r.Context(), sess, ifGen, d)
				if cur == ifGen {
					s.ins.longPollTimeouts.Add(1)
				}
			}
			if cur == ifGen {
				s.writeNotModified(w, ifGen)
				return
			}
		}
		// The window moved (or never matched): serve the full snapshot.
	}

	ks, err := parseCuts(r.URL.Query()["k"])
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Normalize once: the wire form (a map keyed by k) is order- and
	// duplicate-insensitive, so the sorted deduplicated list both keys the
	// body cache and bounds the Cut work by distinct cuts.
	ks = normalizeCuts(ks)
	// Readiness pre-checks give data-shaped conditions a 409 (come back
	// after more ticks) instead of burning an admission slot.
	n, l := sess.st.Series(), sess.st.Len()
	if l < 2 || n < sess.cfg.Method.MinSeries() {
		writeError(w, http.StatusConflict,
			"%v: %d ticks over %d series buffered; %s needs ≥ 2 ticks and ≥ %d series",
			errNotReady, l, n, sess.cfg.Method, sess.cfg.Method.MinSeries())
		return
	}
	// Over-range cuts are a free 400 here; after the clustering run they
	// would cost a full compute (and an admission slot) just to fail.
	for _, k := range ks {
		if k > n {
			writeError(w, http.StatusBadRequest, "cannot cut %d series into %d clusters", n, k)
			return
		}
	}

	s.ins.snapshotRequests.Add(1)
	rec, status, err := s.snapshotResult(r.Context(), sess)
	switch {
	case err == nil:
	case errors.Is(err, errSaturated):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v; retry shortly", err)
		return
	case errors.Is(err, pfg.ErrClosed):
		writeError(w, http.StatusGone, "session deleted")
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The requester is gone (or the server is draining); the write is
		// best-effort, and a client disconnect is not a server error, so
		// SnapshotErrors stays untouched.
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	default:
		s.ins.snapshotErrors.Add(1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}

	// The wire view is deterministic given (result, cuts), so reads of one
	// generation share pre-marshaled bytes — built once even when a whole
	// coalesced stampede wakes at the same instant.
	body, _, err := s.snapshotBody(sess, rec, ks, cutsKey(ks))
	if err != nil {
		// Result-shaped client errors the pre-check didn't anticipate.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("X-Pfg-Generation", strconv.FormatUint(rec.gen, 10))
	writeRawJSON(w, string(status), body)
	if timed {
		elapsed := uint64(time.Since(s.start) - reqStart)
		switch status {
		case cacheHit:
			s.ins.snapHitNs.Observe(elapsed)
		case cacheCoalesced:
			s.ins.snapCoalescedNs.Observe(elapsed)
		case cacheMiss:
			s.ins.snapMissNs.Observe(elapsed)
		}
	}
}

// snapshotBody returns the record's pre-marshaled full response body for
// the cut set ks (key is its cutsKey) and the wire view it encodes, building
// — and counting — the encode at most once per record. Shared by the GET
// path and the broadcaster, so pollers and subscribers of one generation
// receive byte-identical bodies; the broadcaster keeps the view as the base
// of the cut set's next delta. The view comes from the record's reference
// (cache.go), so a hit marshals a copy of a view its reference already
// holds.
func (s *Server) snapshotBody(sess *Session, rec *computed, ks []int, key string) ([]byte, *pfg.ResultJSON, error) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if e, ok := rec.bodies[key]; ok {
		return e.body, e.view, nil
	}
	start := time.Now()
	view, err := rec.ref.view(rec.res, ks, key)
	if err != nil {
		return nil, nil, err
	}
	b, err := json.Marshal(SnapshotResponse{
		Session:    sess.ID,
		Method:     sess.cfg.Method.String(),
		Window:     sess.cfg.Window,
		Generation: rec.gen,
		Result:     view,
		// No Drift here: the GET body is a pure function of the window
		// state (the recovery byte-identity guarantee), while the drift
		// record depends on which generations this process happened to
		// cluster. Drift rides only the SSE frames (see broadcast.go).
	})
	if err != nil {
		return nil, nil, err
	}
	b = append(b, '\n')
	if rec.bodies == nil {
		rec.bodies = make(map[string]encoded)
	}
	if len(rec.bodies) < maxCachedBodies {
		rec.bodies[key] = encoded{body: b, view: view}
	}
	s.ins.snapshotEncodes.Add(1)
	s.ins.serveEncode.ObserveDuration(time.Since(start))
	return b, view, nil
}

// writeRawJSON writes a pre-marshaled 200 response with the cache status
// header (a header, not a body field, so all readers of one generation get
// byte-identical bodies).
func writeRawJSON(w http.ResponseWriter, cacheStatus string, body []byte) {
	w.Header().Set("X-Pfg-Cache", cacheStatus)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

// normalizeCuts sorts and deduplicates a cut list; ?k=2,8 and ?k=8&k=2,2
// are the same request.
func normalizeCuts(ks []int) []int {
	slices.Sort(ks)
	return slices.Compact(ks)
}

// cutsKey renders a normalized cut list as the body-cache key.
func cutsKey(ks []int) string {
	var b strings.Builder
	for i, k := range ks {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(k))
	}
	return b.String()
}
