package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pfg"
)

// Push-based delivery: one generation bump → one clustering run → one encode
// per cut set, fanned out to every subscriber of the session. A cut set is a
// normalized ?k= list; it keys both the pre-marshaled bodies and the roster.
// The broadcaster is the session's single delivery goroutine and the only
// producer of "snapshot" and "delta" frames: it parks on the Streamer's
// generation watch, and on each wake publishes one event to every cut set
// whose last event is older than the current generation — built from the
// same per-generation record (cache.go) the GET path reads, so a poller and
// a subscriber of one generation observe byte-identical bodies. Each cut set
// keeps the last event published to it, and that event's view is the base
// of the cut set's next delta, so a delta always extends what the stream
// itself last published, whichever generations GET readers built bodies for
// in between. A new subscriber is offered its cut set's last event when it
// is for the current generation; otherwise the delivery goroutine publishes
// one. Slow subscribers never block delivery: a full queue drops to the
// latest event and the discarded count surfaces to the client as a
// "dropped" event, after which the delta chain is broken and the next
// delivery is a full snapshot re-base.
//
// Wire format: Server-Sent Events. Each frame is
//
//	event: <snapshot|delta|dropped|bye>
//	id: <generation>
//	data: <one JSON object>
//
// "snapshot" data is the GET /snapshot body of that generation — extended,
// when the generation's record carries structure drift, with a "drift"
// field (see drift.go; the GET body itself never carries it, because the
// drift baseline is per-process serving history and the GET body must stay
// a pure function of the window state). "delta" data is a DeltaResponse
// transforming the cut set's previous event into this one (sent only when
// the subscriber holds that previous event and the delta is smaller than
// the full body), carrying the same drift record; "dropped" is a
// DroppedEvent; "bye" ends the stream (session deleted or server draining).

// subQueueCap bounds a subscriber's pending-event queue. The queue holds
// pointers to shared pre-marshaled frames, so the bound is about latency
// (how far behind a reader may fall before drop-to-latest), not memory.
const subQueueCap = 16

// saturationRetry is how long the broadcaster backs off when admission
// control refuses its clustering run before retrying the delivery.
const saturationRetry = 10 * time.Millisecond

// outEvent is one generation's delivery for one cut set: the full snapshot
// frame, the wire view it encodes, and — when a delta from the cut set's
// previous event exists and is smaller — the delta frame. The writer picks
// per subscriber: delta iff that subscriber's last delivered generation is
// exactly fromGen.
type outEvent struct {
	gen     uint64
	fromGen uint64          // base of the delta frame; meaningless when delta is nil
	full    []byte          // SSE "snapshot" frame
	delta   []byte          // SSE "delta" frame, nil when no (smaller) delta exists
	view    *pfg.ResultJSON // the view full encodes: the base of the next delta
}

// cutSet is the roster entry of one normalized cut list: its subscribers
// and the last event published to them. It exists only while it has
// subscribers.
type cutSet struct {
	ks   []int
	key  string
	subs map[*subscriber]struct{}
	// last is written only by the delivery goroutine, under the roster
	// lock, so that goroutine may read it without the lock.
	last *outEvent
}

// subscriber is one SSE connection's delivery state. The broadcaster offers
// events under mu and pokes signal; the connection's writer goroutine drains
// the queue.
type subscriber struct {
	set *cutSet

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

// broadcaster is a session's fan-out state: the roster of cut sets and the
// (lazily started, lazily exiting) delivery goroutine.
type broadcaster struct {
	sess *Session

	mu      sync.Mutex
	sets    map[string]*cutSet
	subs    int // subscribers across all cut sets
	running bool
	wake    chan struct{} // cap 1: roster changed, re-check
}

func (b *broadcaster) init(sess *Session) {
	b.sess = sess
	b.sets = make(map[string]*cutSet)
	b.wake = make(chan struct{}, 1)
}

// subscribe registers a subscriber to the cut set ks (starting the delivery
// goroutine if none runs) or reports the per-session cap. The cut set's
// last event is offered at once when it is for the current generation;
// otherwise the delivery goroutine is woken to publish one.
func (b *broadcaster) subscribe(s *Server, ks []int) (*subscriber, error) {
	// Read before the roster lock, so the streamer's lock never nests in it;
	// a last event at least this new is current.
	cur := b.sess.st.Generation()
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.subs >= maxSessionSubscribers {
		return nil, fmt.Errorf("session subscriber limit (%d) reached", maxSessionSubscribers)
	}
	key := cutsKey(ks)
	cs := b.sets[key]
	if cs == nil {
		cs = &cutSet{ks: ks, key: key, subs: make(map[*subscriber]struct{})}
		b.sets[key] = cs
	}
	sub := &subscriber{set: cs, signal: make(chan struct{}, 1)}
	cs.subs[sub] = struct{}{}
	b.subs++
	if cs.last != nil && cs.last.gen >= cur {
		sub.offer(cs.last)
	} else {
		b.poke()
	}
	if !b.running {
		b.running = true
		go b.run(s)
	}
	return sub, nil
}

// unsubscribe removes a subscriber, dropping its cut set once no subscriber
// is left, and pokes the delivery goroutine so an empty roster lets it exit
// promptly instead of parking until the next push.
func (b *broadcaster) unsubscribe(sub *subscriber) {
	b.mu.Lock()
	cs := sub.set
	delete(cs.subs, sub)
	if len(cs.subs) == 0 {
		delete(b.sets, cs.key)
	}
	b.subs--
	b.mu.Unlock()
	b.poke()
}

func (b *broadcaster) poke() {
	select {
	case b.wake <- struct{}{}:
	default:
	}
}

// active reports whether any cut set is left and, when none is, marks the
// delivery goroutine stopped under the lock subscribe checks it under.
func (b *broadcaster) active() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.running = len(b.sets) > 0
	return b.running
}

// run is the session's delivery loop: park on the generation watch, publish
// each new generation to the cut sets that lack it, exit when the roster
// empties or the session (or server) goes away. It is the only goroutine
// calling deliver, so one bump triggers at most one clustering run and one
// encode per cut set regardless of subscriber count.
func (b *broadcaster) run(s *Server) {
	for b.active() {
		gen, ch := b.sess.st.Watch()
		if err := b.deliver(s, gen); errors.Is(err, errSaturated) {
			// Admission control is full; the update is not lost — back off
			// briefly and retry.
			select {
			case <-time.After(saturationRetry):
				continue
			case <-b.sess.done:
			case <-s.drainCh:
			}
			b.stop()
			return
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

// deliver publishes generation gen, or the later one a racing push lands,
// to every cut set whose last event is older: one record shared with the GET
// path, then per cut set one body build, one delta against the cut set's
// last event, one publish. Every frame embeds the record's own drift.
func (b *broadcaster) deliver(s *Server, gen uint64) error {
	sess := b.sess
	// Readiness pre-check mirrors the GET path: a window that cannot produce
	// a snapshot yet (first few ticks) is not an error, just nothing to send.
	n, l := sess.st.Series(), sess.st.Len()
	if l < 2 || n < sess.cfg.Method.MinSeries() {
		return nil
	}
	var due []*cutSet
	b.mu.Lock()
	for _, cs := range b.sets {
		if cs.last == nil || cs.last.gen < gen {
			due = append(due, cs)
		}
	}
	b.mu.Unlock()
	if len(due) == 0 {
		return nil
	}
	rec, _, err := s.snapshotResult(s.baseCtx, sess)
	if err != nil {
		return err
	}
	for _, cs := range due {
		body, view, err := s.snapshotBody(sess, rec, cs.ks, cs.key)
		if err != nil {
			// Cut-shaped error (e.g. k > series): this cut set cannot be
			// served; its subscribers simply receive nothing.
			continue
		}
		ev := &outEvent{gen: rec.gen, view: view, full: sseFrame("snapshot", rec.gen, injectDrift(body, rec.drift))}
		if last := cs.last; last != nil {
			ev.fromGen, ev.delta = last.gen, deltaFrame(sess, last, ev, rec.drift, len(body))
		}
		b.publish(s, cs, ev)
	}
	return nil
}

// deltaFrame returns the SSE "delta" frame that turns last's view into
// next's, or nil when the two are not delta-comparable or the delta body is
// not smaller than the full body of bodyLen bytes (which ends in a newline
// the delta body lacks).
func deltaFrame(sess *Session, last, next *outEvent, drift *StructureDrift, bodyLen int) []byte {
	d, err := last.view.Delta(next.view)
	if err != nil {
		return nil
	}
	data, err := json.Marshal(DeltaResponse{
		Session:        sess.ID,
		Method:         sess.cfg.Method.String(),
		Window:         sess.cfg.Window,
		FromGeneration: last.gen,
		Generation:     next.gen,
		Delta:          d,
		Drift:          drift,
	})
	if err != nil || len(data)+1 >= bodyLen {
		return nil
	}
	return sseFrame("delta", next.gen, data)
}

// publish makes ev the cut set's last event and offers it to the cut set's
// subscribers, both under the roster lock: a subscriber joining meanwhile is
// either offered ev here or finds it as the last event in subscribe.
func (b *broadcaster) publish(s *Server, cs *cutSet, ev *outEvent) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cs.last = ev
	for sub := range cs.subs {
		// The post-offer depth is how far this subscriber is behind; a
		// distribution hugging 1 means readers keep up, climbing toward
		// subQueueCap foreshadows drop-to-latest.
		s.ins.subQueueDepth.Observe(uint64(sub.offer(ev)))
	}
}

// injectDrift splices a drift record into a pre-marshaled snapshot body
// (which the record shares with the GET path and must not itself carry
// drift): `{...}` becomes `{...,"drift":{...}}`. The drift record is fixed
// before the generation's clustering run completes, so every SSE snapshot
// frame of one generation is still byte-identical across subscribers. nil
// drift (or a marshal failure) returns the body unchanged.
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
// /snapshot. The handler writes the headers, the frames the broadcaster
// queues, and the "dropped" and "bye" notices, never a snapshot of its own.
// The first event is a full snapshot (once the window can produce one);
// subsequent generations arrive as deltas whenever the chain from the
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
	flusher.Flush()

	// lastGen is the generation this subscriber last received on the wire;
	// deltas only apply when an event's fromGen equals it exactly.
	var lastGen uint64

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
