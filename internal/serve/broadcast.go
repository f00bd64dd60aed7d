package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Push-based delivery: one generation bump → one clustering run → one encode,
// fanned out to every subscriber of the session. The broadcaster is the
// session's single delivery goroutine: it parks on the Streamer's generation
// watch, and on each wake produces at most one event per distinct cut set —
// through the same generation-keyed snapshot/body caches the GET path uses,
// so a poller and a subscriber of one generation observe byte-identical
// bodies — then offers the pre-marshaled frames to every subscriber's
// bounded queue. Slow subscribers never block it: a full queue drops to the
// latest event and the discarded count surfaces to the client as a "dropped"
// event, after which the delta chain is broken and the next delivery is a
// full snapshot re-base.
//
// Wire format: Server-Sent Events. Each frame is
//
//	event: <snapshot|delta|dropped|bye>
//	id: <generation>
//	data: <one JSON object>
//
// "snapshot" data is the GET /snapshot body of that generation — extended,
// when structure drift was computed for the generation, with a "drift"
// field (see drift.go; the GET body itself never carries it, because the
// drift baseline is per-process serving history and the GET body must stay
// a pure function of the window state). "delta" data is a DeltaResponse
// transforming the subscriber's previous generation into this one (sent
// only when the chain is intact and the delta is smaller than the full
// body), carrying the same drift record; "dropped" is a DroppedEvent; "bye"
// ends the stream (session deleted or server draining).

// subQueueCap bounds a subscriber's pending-event queue. The queue holds
// pointers to shared pre-marshaled frames, so the bound is about latency
// (how far behind a reader may fall before drop-to-latest), not memory.
const subQueueCap = 16

// saturationRetry is how long the broadcaster backs off when admission
// control refuses its clustering run before retrying the delivery.
const saturationRetry = 10 * time.Millisecond

// outEvent is one generation's delivery for one cut set: the full snapshot
// frame, and — when a delta from the previously delivered generation exists
// and is smaller — the delta frame. The writer picks per subscriber: delta
// iff that subscriber's last delivered generation is exactly fromGen.
type outEvent struct {
	gen     uint64
	fromGen uint64 // base of the delta frame; meaningless when delta is nil
	full    []byte // SSE "snapshot" frame
	delta   []byte // SSE "delta" frame, nil when no (smaller) delta exists
}

// subscriber is one SSE connection's delivery state. The broadcaster offers
// events under mu and pokes signal; the connection's writer goroutine drains
// the queue. lastGen is writer-local: the generation last put on the wire.
type subscriber struct {
	ks  []int
	key string

	signal chan struct{} // cap 1: "queue is non-empty"

	mu      sync.Mutex
	queue   []*outEvent
	dropped uint64
}

// offer appends an event to the subscriber's queue, dropping to latest on
// overflow, and returns the resulting queue depth (the broadcaster's
// backpressure signal). Never blocks.
func (sub *subscriber) offer(ev *outEvent) int {
	sub.mu.Lock()
	if len(sub.queue) >= subQueueCap {
		sub.dropped += uint64(len(sub.queue))
		sub.queue = sub.queue[:0]
	}
	sub.queue = append(sub.queue, ev)
	depth := len(sub.queue)
	sub.mu.Unlock()
	select {
	case sub.signal <- struct{}{}:
	default:
	}
	return depth
}

// take drains the subscriber's queue: the pending events plus the count of
// events dropped since the last take.
func (sub *subscriber) take() ([]*outEvent, uint64) {
	sub.mu.Lock()
	evs, dropped := sub.queue, sub.dropped
	sub.queue, sub.dropped = nil, 0
	sub.mu.Unlock()
	return evs, dropped
}

// broadcaster is a session's fan-out state: the subscriber roster and the
// (lazily started, lazily exiting) delivery goroutine.
type broadcaster struct {
	sess *Session

	mu      sync.Mutex
	subs    map[*subscriber]struct{}
	running bool
	wake    chan struct{} // cap 1: roster changed, re-check
}

func (b *broadcaster) init(sess *Session) {
	b.sess = sess
	b.subs = make(map[*subscriber]struct{})
	b.wake = make(chan struct{}, 1)
}

// subscribe registers a new subscriber (starting the delivery goroutine if
// none runs) or reports the per-session cap.
func (b *broadcaster) subscribe(s *Server, ks []int) (*subscriber, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) >= maxSessionSubscribers {
		return nil, fmt.Errorf("session subscriber limit (%d) reached", maxSessionSubscribers)
	}
	sub := &subscriber{ks: ks, key: cutsKey(ks), signal: make(chan struct{}, 1)}
	b.subs[sub] = struct{}{}
	if !b.running {
		b.running = true
		go b.run(s)
	}
	return sub, nil
}

// unsubscribe removes a subscriber and pokes the delivery goroutine so an
// empty roster lets it exit promptly instead of parking until the next push.
func (b *broadcaster) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	delete(b.subs, sub)
	b.mu.Unlock()
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// roster snapshots the current subscribers; nil means the roster is empty
// and the caller (the run loop) has marked itself stopped.
func (b *broadcaster) roster() []*subscriber {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.subs) == 0 {
		b.running = false
		return nil
	}
	out := make([]*subscriber, 0, len(b.subs))
	for sub := range b.subs {
		out = append(out, sub)
	}
	return out
}

// run is the session's delivery loop: park on the generation watch, deliver
// each new generation once, exit when the roster empties or the session (or
// server) goes away. It is the only goroutine calling deliver, so one bump
// triggers at most one clustering run and one encode per cut set regardless
// of subscriber count.
func (b *broadcaster) run(s *Server) {
	var lastSent uint64
	for {
		subs := b.roster()
		if subs == nil {
			return
		}
		gen, ch := b.sess.st.Watch()
		if gen > lastSent {
			sent, err := b.deliver(s, subs, gen)
			if err != nil && errors.Is(err, errSaturated) {
				// Admission control is full; the update is not lost — back
				// off briefly and retry the same generation.
				select {
				case <-time.After(saturationRetry):
				case <-b.sess.done:
					b.stop()
					return
				case <-s.drainCh:
					b.stop()
					return
				}
				continue
			}
			if err == nil && sent > lastSent {
				lastSent = sent
			}
		}
		select {
		case <-ch:
		case <-b.wake:
		case <-b.sess.done:
			b.stop()
			return
		case <-s.drainCh:
			b.stop()
			return
		}
	}
}

func (b *broadcaster) stop() {
	b.mu.Lock()
	b.running = false
	b.mu.Unlock()
}

// deliver produces the event(s) for one generation and offers them to the
// subscribers: one clustering run shared with (and cached for) the GET path,
// then per distinct cut set one body build, one delta attempt, one frame
// pair. Returns the generation actually delivered (a racing push may land a
// later one than observed).
func (b *broadcaster) deliver(s *Server, subs []*subscriber, gen uint64) (uint64, error) {
	sess := b.sess
	// Readiness pre-check mirrors the GET path: a window that cannot produce
	// a snapshot yet (first few ticks) is not an error, just nothing to send.
	n, l := sess.st.Series(), sess.st.Len()
	if l < 2 || n < sess.cfg.Method.MinSeries() {
		return gen, nil
	}
	res, actualGen, _, err := s.snapshotResult(s.baseCtx, sess)
	if err != nil {
		return 0, err
	}
	sess.noteServed(res)

	byKey := make(map[string][]*subscriber)
	for _, sub := range subs {
		byKey[sub.key] = append(byKey[sub.key], sub)
	}
	for key, group := range byKey {
		full, err := s.snapshotBody(sess, res, actualGen, group[0].ks, key)
		if err != nil {
			// Cut-shaped error (e.g. k > series): this group cannot be
			// served; its subscribers simply receive nothing.
			continue
		}
		ev := &outEvent{gen: actualGen, full: sseFrame("snapshot", actualGen, injectDrift(full, sess.drift.driftFor(actualGen)))}
		if d, fromGen, ok := s.snapshotDelta(sess, actualGen, key); ok && len(d) < len(full) {
			ev.fromGen = fromGen
			ev.delta = sseFrame("delta", actualGen, d)
		}
		for _, sub := range group {
			// The post-offer depth is how far this subscriber is behind; a
			// distribution hugging 1 means readers keep up, climbing toward
			// subQueueCap foreshadows drop-to-latest.
			s.ins.subQueueDepth.Observe(uint64(sub.offer(ev)))
		}
	}
	return actualGen, nil
}

// injectDrift splices a drift record into a pre-marshaled snapshot body
// (which the cache shares with the GET path and must not itself carry
// drift): `{...}` becomes `{...,"drift":{...}}`. The record is fixed before
// the generation's clustering run published, so every SSE snapshot frame of
// one generation is still byte-identical across subscribers. nil drift (or
// a marshal failure) returns the body unchanged.
func injectDrift(body []byte, d *StructureDrift) []byte {
	if d == nil {
		return body
	}
	db, err := json.Marshal(d)
	if err != nil {
		return body
	}
	trimmed := bytes.TrimRight(body, "\n")
	if len(trimmed) == 0 || trimmed[len(trimmed)-1] != '}' {
		return body
	}
	out := make([]byte, 0, len(trimmed)+len(db)+10)
	out = append(out, trimmed[:len(trimmed)-1]...)
	out = append(out, `,"drift":`...)
	out = append(out, db...)
	out = append(out, '}')
	return out
}

// sseFrame renders one Server-Sent Events frame. data is a single-line JSON
// body (the caches append a trailing newline; trim it — SSE data must not
// contain raw newlines).
func sseFrame(event string, id uint64, data []byte) []byte {
	data = bytes.TrimRight(data, "\n")
	var buf bytes.Buffer
	buf.Grow(len(data) + 64)
	fmt.Fprintf(&buf, "event: %s\nid: %d\ndata: ", event, id)
	buf.Write(data)
	buf.WriteString("\n\n")
	return buf.Bytes()
}

// handleEvents is GET /v1/sessions/{id}/events: an SSE stream of the
// session's clustering as it evolves. ?k= selects flat cuts exactly as on
// /snapshot. The first event is a full snapshot (once the window can produce
// one); subsequent generations arrive as deltas whenever the chain from the
// subscriber's last delivered generation is intact and the delta is smaller
// than the full body, as full snapshots otherwise.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.reg.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such session")
		return
	}
	ks, err := parseCuts(r.URL.Query()["k"])
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	ks = normalizeCuts(ks)
	// Cut range is only checkable once the series count is fixed; before the
	// first push any cut list is provisionally acceptable.
	if n := sess.st.Series(); n > 0 {
		for _, k := range ks {
			if k > n {
				writeError(w, http.StatusBadRequest, "cannot cut %d series into %d clusters", n, k)
				return
			}
		}
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	select {
	case <-s.drainCh:
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	default:
	}

	// Subscriber ceilings: the aggregate budget first, then the per-session
	// cap inside subscribe (under the roster lock).
	if !s.reg.reserveSubscriber() {
		s.ins.subscribeRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "subscriber limit (%d) reached", maxTotalSubscribers)
		return
	}
	sub, err := sess.bcast.subscribe(s, ks)
	if err != nil {
		s.reg.releaseSubscriber()
		s.ins.subscribeRejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	s.ins.subscribers.Add(1)
	defer func() {
		sess.bcast.unsubscribe(sub)
		s.reg.releaseSubscriber()
		s.ins.subscribers.Add(-1)
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// lastGen is the generation this subscriber last received on the wire;
	// deltas only apply when an event's fromGen equals it exactly.
	var lastGen uint64

	// Initial full snapshot, when the window is already able to produce one;
	// otherwise the subscriber waits for the first deliverable generation.
	if n, l := sess.st.Series(), sess.st.Len(); l >= 2 && n >= sess.cfg.Method.MinSeries() {
		if res, gen, _, err := s.snapshotResult(r.Context(), sess); err == nil {
			if full, err := s.snapshotBody(sess, res, gen, ks, sub.key); err == nil {
				frame := sseFrame("snapshot", gen, injectDrift(full, sess.drift.driftFor(gen)))
				if _, err := w.Write(frame); err != nil {
					return
				}
				lastGen = gen
				s.ins.eventsFull.Add(1)
				s.ins.eventBytes.Add(uint64(len(frame)))
			}
		}
	}
	flusher.Flush()

	for {
		select {
		case <-sub.signal:
			evs, dropped := sub.take()
			if dropped > 0 {
				s.ins.eventsDropped.Add(dropped)
				if b, err := json.Marshal(DroppedEvent{Dropped: dropped}); err == nil {
					frame := sseFrame("dropped", lastGen, b)
					if _, err := w.Write(frame); err != nil {
						return
					}
					s.ins.eventBytes.Add(uint64(len(frame)))
				}
			}
			for _, ev := range evs {
				if ev.gen <= lastGen {
					continue
				}
				frame := ev.full
				switch {
				case ev.delta != nil && ev.fromGen == lastGen:
					frame = ev.delta
					s.ins.eventsDelta.Add(1)
					s.ins.eventBytesSaved.Add(uint64(len(ev.full) - len(ev.delta)))
				default:
					s.ins.eventsFull.Add(1)
					if lastGen != 0 {
						// A delta was conceivable (the subscriber had a base)
						// but none was usable: chain broken or delta ≥ full.
						s.ins.deltaFallbackFulls.Add(1)
					}
				}
				if _, err := w.Write(frame); err != nil {
					return
				}
				s.ins.eventBytes.Add(uint64(len(frame)))
				lastGen = ev.gen
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-sess.done:
			w.Write(sseFrame("bye", lastGen, []byte(`{"reason":"session deleted"}`)))
			flusher.Flush()
			return
		case <-s.drainCh:
			w.Write(sseFrame("bye", lastGen, []byte(`{"reason":"server draining"}`)))
			flusher.Flush()
			return
		}
	}
}
