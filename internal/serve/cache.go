package serve

import (
	"context"
	"errors"
	"sync"
	"time"

	"pfg"
	"pfg/internal/graph"
)

// The snapshot cache turns O(clients) clustering work into O(ticks) work.
// The expensive artifact per session is the clustering of one window state,
// and window states are totally ordered by the Streamer's generation stamp —
// so the cache is generation-keyed: one record per session for the latest
// computed generation, plus a singleflight table of in-flight computations.
// A reader either
//
//   - hits: the current record's generation is at least the session's
//     current generation;
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
//
// Each clustering run yields one record (computed): the result, its
// structure drift against the record it replaced (drift.go), and the
// response bodies built for it, one per cut set. An incremental hit serves a
// copy of its reference clustering — the exact one of generation
// generation − stale_ticks — so every record copied from one exact
// clustering shares one reference: the drift-cut labels and canonical edges
// that drift compares, and the wire views that a hit's bodies copy with
// their own stale_ticks and drift. A new reference derives them once; a hit
// runs no Cut, CanonicalEdges or Newick for a cut set whose view its
// reference holds. The record rules:
//
//   - drift is fixed before the flight completes: the run goroutine
//     publishes the record before any waiter wakes, so every SSE frame of a
//     generation embeds the same drift record;
//   - publication is monotone: a record older than the current one is handed
//     to its own flight's waiters, with no drift, and never becomes current;
//   - publishing the current generation again returns the record already
//     published, so a generation has one drift record and one body set;
//   - lock order is record mu → reference mu;
//   - snapCache.mu is never held across Cut, CanonicalEdges or marshaling.

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
	done    chan struct{} // closed once rec/err are final
	cancel  context.CancelFunc
	waiters int // requests (leader included) still waiting; guarded by the cache mutex
	rec     *computed
	err     error
}

// maxCachedBodies bounds each record's bodies and each reference's views:
// one entry per distinct cut set, well beyond what a sane client mix asks
// for.
const maxCachedBodies = 32

// reference is the state every record copied from one exact clustering
// shares. gen, labels and edges are fixed at construction.
type reference struct {
	gen    uint64     // generation of the exact clustering
	labels []int      // flat cut at the session's drift cut
	edges  [][2]int32 // canonical: lo < hi, sorted

	// views holds up to maxCachedBodies wire views, one per cut set, each
	// from whichever record derived it. mu is held across a derivation, so
	// records of one reference derive a cut set's view once.
	mu    sync.Mutex
	views map[string]*pfg.ResultJSON
}

// computed is the record of one clustering run. gen, res, ref and drift are
// fixed before the record is published.
type computed struct {
	gen uint64 // the generation res clusters
	res *pfg.Result
	ref *reference
	// drift compares the record against the one it replaced as current; nil
	// for a session's first record and for a record that never became
	// current.
	drift *StructureDrift

	// bodies holds one pre-marshaled response per cut set. mu is held across
	// a body build, so a stampede of readers builds each body once.
	mu     sync.Mutex
	bodies map[string]encoded
}

// encoded is one cut set's marshaled response body and the wire view it
// encodes.
type encoded struct {
	body []byte
	view *pfg.ResultJSON
}

// snapCache is one session's generation-keyed snapshot cache. The zero
// value needs init().
type snapCache struct {
	mu       sync.Mutex
	cur      *computed // latest published record (nil until one lands)
	inflight map[uint64]*flight
}

func (c *snapCache) init() {
	c.inflight = make(map[uint64]*flight)
}

// current returns the latest published record, or nil before the first.
func (c *snapCache) current() *computed {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// publish records res, the clustering of generation gen, and returns the
// record its flight hands to its waiters. It runs on the clustering run's
// goroutine before the flight completes. The record becomes current unless
// a record of gen or later already is: for gen itself that record is
// returned, for a later one the new record goes only to its own flight.
// A record shares the current record's reference when res is a copy of the
// same exact clustering, and derives a new one otherwise.
func (s *Server) publish(sess *Session, res *pfg.Result, gen uint64) *computed {
	k := driftCut(sess.cfg.DriftCut, res.Dendrogram.N)
	refGen := gen - uint64(res.TicksSinceExact)
	c := &sess.cache
	rec := &computed{gen: gen, res: res}
	if prev := c.current(); prev != nil && prev.ref.gen == refGen {
		rec.ref = prev.ref
	} else {
		rec.ref = newReference(res, refGen, k)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev := c.cur; prev != nil {
		switch {
		case prev.gen == gen:
			return prev
		case prev.gen > gen:
			return rec
		case prev.ref.gen == refGen:
			// A run of the same reference published meanwhile.
			rec.ref = prev.ref
		}
		rec.drift = s.measureDrift(prev, rec, k)
	}
	c.cur = rec
	return rec
}

// newReference derives the shared state of the exact clustering of
// generation refGen from res, a copy of it: the flat cut at k and the
// canonical edge list.
func newReference(res *pfg.Result, refGen uint64, k int) *reference {
	// driftCut clamps k to [1, n], where Cut cannot fail.
	labels, _ := res.Cut(k)
	return &reference{
		gen:    refGen,
		labels: labels,
		edges:  graph.CanonicalEdges(res.Edges),
		views:  make(map[string]*pfg.ResultJSON),
	}
}

// view returns the wire view of res, a copy of the reference clustering, at
// the cut set key: the reference's stored view for key with res's own
// stale_ticks and drift, or, when it holds none, one derived with
// Result.JSON. Views are immutable once stored.
func (ref *reference) view(res *pfg.Result, ks []int, key string) (*pfg.ResultJSON, error) {
	ref.mu.Lock()
	defer ref.mu.Unlock()
	if v := ref.views[key]; v != nil {
		cp := *v
		cp.StaleTicks, cp.Drift = res.TicksSinceExact, res.Drift
		return &cp, nil
	}
	v, err := res.JSON(ks, nil)
	if err != nil {
		return nil, err
	}
	if len(ref.views) >= maxCachedBodies {
		// Drop an arbitrary view: a reference can live for many
		// generations, and a cut set first served late in its life must
		// still get a stored view.
		for k := range ref.views {
			delete(ref.views, k)
			break
		}
	}
	ref.views[key] = v
	return v, nil
}

// snapshotResult returns the record of the session's current window state,
// sharing one run among all concurrent readers of one generation. ctx is
// the request's context: it bounds only this caller's wait, feeding the
// run's waiter-refcounted cancellation rather than cancelling the run
// directly.
func (s *Server) snapshotResult(ctx context.Context, sess *Session) (*computed, cacheStatus, error) {
	c := &sess.cache
	gen := sess.st.Generation()
	c.mu.Lock()
	// A record or in-flight run of generation ≥ the one this reader
	// observed serves it: the reader's observation can only be stale (the
	// window moved underneath it), and a fresher state is exactly what it
	// would get by re-reading Generation() now. Requiring equality would
	// let a stale reader launch a duplicate run of a state another run
	// already covers.
	if cur := c.cur; cur != nil && cur.gen >= gen {
		c.mu.Unlock()
		s.ins.snapshotHits.Add(1)
		return cur, cacheHit, nil
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
		return nil, "", errSaturated
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
		// A push may race the run, in which case it clusters a later
		// generation than the one the leader observed; the record carries
		// the generation actually clustered.
		res, actualGen, err := sess.st.SnapshotGen(runCtx)
		elapsed := time.Since(start)
		s.ins.snapRunNs.Observe(uint64(elapsed))
		var rec *computed
		if err == nil {
			published := time.Now()
			rec = s.publish(sess, res, actualGen)
			s.ins.serveStructure.ObserveDuration(time.Since(published))
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
		f.rec, f.err = rec, err
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
func (c *snapCache) wait(ctx context.Context, f *flight, status cacheStatus) (*computed, cacheStatus, error) {
	select {
	case <-f.done:
		return f.rec, status, f.err
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
		return nil, status, ctx.Err()
	}
}
