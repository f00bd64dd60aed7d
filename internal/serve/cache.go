package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"pfg"
)

// The snapshot cache turns O(clients) clustering work into O(ticks) work.
// The expensive artifact per session is the clustering of one window state,
// and window states are totally ordered by the Streamer's generation stamp —
// so the cache is generation-keyed: one entry per session holding the last
// computed (generation, Result), plus a singleflight table of in-flight
// computations. A reader either
//
//   - hits: the cached entry matches the session's current generation;
//   - coalesces: another request is already clustering that generation, so
//     it parks on the flight and shares the one result; or
//   - misses: it becomes the leader, passes admission control, and launches
//     the one clustering run everybody else will share.
//
// Push invalidates by construction — it bumps the generation, so the next
// reader misses and recomputes — and the cache needs no TTLs or explicit
// invalidation hooks.
//
// Cancellation is waiter-refcounted: the clustering run is cancelled only
// when every request waiting on it (leader included) has abandoned it, so
// one impatient client can never kill a run other clients still want, while
// a run nobody wants stops burning CPU promptly.

// errSaturated maps to 429 Too Many Requests in the handler.
var errSaturated = errors.New("serve: snapshot capacity saturated")

// errNotReady maps to 409 Conflict: the window cannot produce a snapshot yet.
var errNotReady = errors.New("serve: window not ready for a snapshot")

// cacheStatus is reported in the X-Pfg-Cache response header (a header, not
// a body field, so coalesced and cached readers of one generation receive
// byte-identical bodies).
type cacheStatus string

const (
	cacheHit       cacheStatus = "hit"
	cacheCoalesced cacheStatus = "coalesced"
	cacheMiss      cacheStatus = "miss"
)

// flight is one in-flight clustering run, shared by every request that
// coalesced onto it.
type flight struct {
	key     uint64        // generation the flight is registered under in inflight
	done    chan struct{} // closed once res/gen/err are final
	cancel  context.CancelFunc
	waiters int // requests (leader included) still waiting; guarded by the cache mutex
	res     *pfg.Result
	gen     uint64 // generation the run actually clustered (≥ key if pushes raced)
	err     error
}

// maxCachedBodies bounds the per-session map of pre-marshaled response
// bodies: one entry per distinct cut-set requested against the current
// generation, well beyond what a sane client mix asks for.
const maxCachedBodies = 32

// snapCache is one session's generation-keyed snapshot cache. The zero
// value needs init().
type snapCache struct {
	mu       sync.Mutex
	gen      uint64      // generation of the cached result
	res      *pfg.Result // last successfully computed result (nil until one lands)
	inflight map[uint64]*flight

	// Marshaled response bodies for bodiesGen, keyed by the normalized cut
	// list, alongside the unmarshaled views they were built from. The wire
	// view is deterministic, so repeat readers of one generation get the
	// stored bytes at memcpy cost instead of re-running Cut/Newick/Marshal
	// per request. marshalMu serializes body builds so a stampede of waiters
	// waking from one flight marshals once, not once per waiter.
	bodies    map[string][]byte
	views     map[string]*pfg.ResultJSON
	bodiesGen uint64
	// The previous body generation's views survive one rotation, so refView
	// can still find a reference's view when another cut set rotated the
	// maps first.
	prevViews map[string]*pfg.ResultJSON
	prevGen   uint64
	marshalMu sync.Mutex
}

func (c *snapCache) init() {
	c.inflight = make(map[uint64]*flight)
	c.bodies = make(map[string][]byte)
	c.views = make(map[string]*pfg.ResultJSON)
}

// cachedBody returns the stored response bytes and view for (gen, key), if
// any.
func (c *snapCache) cachedBody(gen uint64, key string) ([]byte, *pfg.ResultJSON) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bodiesGen != gen {
		return nil, nil
	}
	return c.bodies[key], c.views[key]
}

// body returns the marshaled response for (gen, key) and the wire view it
// encodes, building them at most once per stampede: the waiters a completed
// flight wakes together race here, the first builds under marshalMu, the
// rest find the stored bytes on the double-check. Build errors are
// returned, not cached.
func (c *snapCache) body(gen uint64, key string, build func() ([]byte, *pfg.ResultJSON, error)) ([]byte, *pfg.ResultJSON, error) {
	if b, v := c.cachedBody(gen, key); b != nil {
		return b, v, nil
	}
	c.marshalMu.Lock()
	defer c.marshalMu.Unlock()
	if b, v := c.cachedBody(gen, key); b != nil {
		return b, v, nil
	}
	b, view, err := build()
	if err != nil {
		return nil, nil, err
	}
	c.storeBody(gen, key, b, view)
	return b, view, nil
}

// refView returns a stored wire view of the reference clustering ref for
// this cut key, or nil. A view of generation g with StaleTicks s was built
// from the clustering of reference generation g − s, whichever result object
// carried it, so each view's reference follows from its own stamp. Both the
// current and the previous generation's views are searched: a build for a
// new generation runs before storeBody rotates the maps to it, and once one
// cut set of the new generation is stored, the others' views of the same
// reference sit in the previous map.
func (c *snapCache) refView(ref uint64, key string) *pfg.ResultJSON {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v := c.views[key]; v != nil && c.bodiesGen-uint64(v.StaleTicks) == ref {
		return v
	}
	if v := c.prevViews[key]; v != nil && c.prevGen-uint64(v.StaleTicks) == ref {
		return v
	}
	return nil
}

// storeBody records the marshaled response and its view for (gen, key),
// rotating the maps when the generation moves — the outgoing generation's
// views become prevViews — and capping their size. Callers must not mutate
// body or view afterwards.
func (c *snapCache) storeBody(gen uint64, key string, body []byte, view *pfg.ResultJSON) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen > c.bodiesGen {
		// Fresh maps, not clear(): the outgoing views are retained as
		// prevViews and must not alias the new generation's map.
		c.prevGen, c.prevViews = c.bodiesGen, c.views
		c.bodiesGen = gen
		c.bodies = make(map[string][]byte)
		c.views = make(map[string]*pfg.ResultJSON)
	}
	if c.bodiesGen == gen && len(c.bodies) < maxCachedBodies {
		c.bodies[key] = body
		c.views[key] = view
	}
}

// snapshotResult returns the clustering of the session's current window
// state, sharing one run among all concurrent readers of one generation.
// ctx is the request's context: it bounds only this caller's wait, feeding
// the run's waiter-refcounted cancellation rather than cancelling the run
// directly.
func (s *Server) snapshotResult(ctx context.Context, sess *Session) (*pfg.Result, uint64, cacheStatus, error) {
	c := &sess.cache
	gen := sess.st.Generation()
	c.mu.Lock()
	// A cached result or in-flight run of generation ≥ the one this reader
	// observed serves it: the reader's observation can only be stale (the
	// window moved underneath it), and a fresher state is exactly what it
	// would get by re-reading Generation() now. Requiring equality would
	// let a stale reader launch a duplicate run of a state another run
	// already covers.
	if c.res != nil && c.gen >= gen {
		res, cachedGen := c.res, c.gen
		c.mu.Unlock()
		s.ins.snapshotHits.Add(1)
		return res, cachedGen, cacheHit, nil
	}
	var join *flight
	for k, f := range c.inflight {
		if k >= gen && (join == nil || k > join.key) {
			join = f
		}
	}
	if join != nil {
		join.waiters++
		c.mu.Unlock()
		s.ins.snapshotCoalesced.Add(1)
		return c.wait(ctx, join, cacheCoalesced)
	}
	// Leader path. Admission control first: the semaphore bounds clustering
	// runs in flight across all sessions (the exec-pool idiom — a
	// non-blocking acquire with an inline fallback, except the fallback here
	// is a 429, not inline work). Taken under the cache mutex so two leaders
	// cannot both slip past the last slot and register duplicate flights.
	select {
	case s.sem <- struct{}{}:
	default:
		c.mu.Unlock()
		s.ins.snapshotRejected.Add(1)
		return nil, 0, "", errSaturated
	}
	runCtx, cancel := context.WithCancel(s.baseCtx)
	f := &flight{key: gen, done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.inflight[gen] = f
	c.mu.Unlock()
	s.ins.snapshotRuns.Add(1)

	// The run itself happens on a detached goroutine so the leader can
	// abandon it (client gone, deadline hit) exactly like a coalesced
	// waiter, leaving the run alive for everyone else.
	go func() {
		defer func() { <-s.sem }()
		start := time.Now()
		res, actualGen, err := sess.st.SnapshotGen(runCtx)
		elapsed := time.Since(start)
		s.ins.snapRunNs.Observe(uint64(elapsed))
		if err == nil {
			// Record the structure-drift comparison before the flight
			// publishes: every response body of this generation — built only
			// after f.done closes or c.res lands below — then embeds the
			// same drift record.
			noted := time.Now()
			s.noteStructure(sess, res, actualGen)
			s.ins.serveStructure.ObserveDuration(time.Since(noted))
			if slow := s.opts.LogSlowTick; slow > 0 && elapsed >= slow {
				logSlowSnapshot(sess, actualGen, elapsed)
			}
		}
		cancel()
		c.mu.Lock()
		// Unpublish only this flight: if the last waiter abandoned it, it
		// is already gone — and a fresh flight for the same generation may
		// sit in its slot, which must not be torn down.
		if c.inflight[f.key] == f {
			delete(c.inflight, f.key)
		}
		f.res, f.gen, f.err = res, actualGen, err
		// A push may have raced the run, in which case the result belongs
		// to a later generation than the one the leader observed; store it
		// under the generation it actually clustered, guarded to keep the
		// cache monotone.
		if err == nil && (c.res == nil || actualGen >= c.gen) {
			c.res, c.gen = res, actualGen
		}
		close(f.done)
		c.mu.Unlock()
	}()
	return c.wait(ctx, f, cacheMiss)
}

// wait parks one request on a flight until the run completes or the
// request's own context ends. An abandoning request decrements the waiter
// count; the one that drops it to zero unpublishes the flight (atomically
// with the decrement, so no new request can join a doomed run) and then
// cancels the computation.
func (c *snapCache) wait(ctx context.Context, f *flight, status cacheStatus) (*pfg.Result, uint64, cacheStatus, error) {
	select {
	case <-f.done:
		return f.res, f.gen, status, f.err
	case <-ctx.Done():
		c.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		if last && c.inflight[f.key] == f {
			delete(c.inflight, f.key)
		}
		c.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, 0, status, ctx.Err()
	}
}
