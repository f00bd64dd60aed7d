package serve

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"pfg"
)

// SessionConfig is the immutable configuration a session is created with.
type SessionConfig struct {
	Window       int
	Method       pfg.Method
	Prefix       int
	Workers      int
	RebuildEvery int
	// Incremental opts the session's streamer into the incremental serving
	// layer (see pfg.IncrementalOptions).
	Incremental pfg.IncrementalOptions
	// DriftCut is the flat-cut width the structure-drift signal compares
	// consecutive generations at (0 = defaultDriftCut, clamped to the
	// series count; see drift.go).
	DriftCut int
}

// Session is one named streaming feed: a pfg.Streamer plus the serving
// state wrapped around it. The Streamer's concurrency contract (single
// writer, concurrent readers) maps onto the session as pushMu — all HTTP
// pushes to one session serialize on it — while snapshots go through the
// generation-keyed cache and never take it.
type Session struct {
	ID  string
	cfg SessionConfig
	st  *pfg.Streamer

	// pushMu serializes writers (Push) per the Streamer contract; the
	// Streamer's own RWMutex protects readers against the writer.
	pushMu sync.Mutex
	cache  snapCache

	// bcast fans window updates out to the session's SSE subscribers; done is
	// closed when the session is deleted (or the server shuts down) so event
	// streams end promptly instead of waiting out their connections.
	bcast broadcaster
	done  chan struct{}

	// ringReserved is the session's share of the aggregate ring-buffer
	// budget, claimed at the first push; guarded by the registry mutex.
	ringReserved int

	// dur is the session's durability state (nil when the server runs
	// without a StateDir, or when a disk failure at attach time disabled
	// durability for this session); its fields are guarded by pushMu.
	dur *durable

	// lastStale and lastDrift record the staleness metadata of the most
	// recently served snapshot (zero until one is served, and always zero
	// for non-incremental sessions). Atomics: the snapshot path updates them
	// outside any session lock.
	lastStale atomic.Int64
	lastDrift atomic.Uint64 // math.Float64bits

	// met is the session's per-stage timing (attachMetrics); nil for a
	// session an embedder created straight through the Registry. An atomic
	// pointer because the slow-tick log reads it from both the push path
	// and clustering-run goroutines.
	met atomic.Pointer[pfg.StreamerMetrics]

	// drift tracks structure change between consecutive computed
	// generations (see drift.go); updated on clustering-run goroutines.
	drift driftTracker
}

// noteServed records the staleness metadata of a snapshot that was just
// served, for Info and /statsz.
func (s *Session) noteServed(r *pfg.Result) {
	s.lastStale.Store(int64(r.TicksSinceExact))
	s.lastDrift.Store(math.Float64bits(r.Drift))
}

// Info reports the session's current externally-visible state.
func (s *Session) Info() SessionInfo {
	ringBytes, bandBytes := s.st.MemoryBytes()
	return SessionInfo{
		ID:           s.ID,
		Window:       s.cfg.Window,
		Method:       s.cfg.Method.String(),
		Prefix:       s.cfg.Prefix,
		Workers:      s.cfg.Workers,
		RebuildEvery: s.cfg.RebuildEvery,
		Precision:    sessionPrecision,
		Series:       s.st.Series(),
		Len:          s.st.Len(),
		RingBytes:    ringBytes,
		BandBytes:    bandBytes,
		Generation:   s.st.Generation(),
		Exact:        s.st.Exact(),
		Incremental:  s.cfg.Incremental.Enabled,
		StaleTicks:   int(s.lastStale.Load()),
		Drift:        math.Float64frombits(s.lastDrift.Load()),
	}
}

// Registry is the concurrent session table: create/get/list/delete under an
// RWMutex sized for a read-mostly workload (every push and snapshot is one
// read-locked lookup).
type Registry struct {
	mu       sync.RWMutex
	sessions map[string]*Session
	closed   bool

	workersInUse int // Σ cfg.Workers of live sessions
	ringInUse    int // Σ ringReserved of live sessions
	subsInUse    int // Σ live SSE subscribers across sessions
}

func newRegistry() *Registry {
	return &Registry{sessions: make(map[string]*Session)}
}

// Resource ceilings on session configuration: creates are unauthenticated
// requests, so the knobs that translate directly into memory (the window
// ring buffer) and goroutines (the per-session worker pool, spawned eagerly
// by exec.New) get hard caps instead of trusting the client.
const (
	// maxWindow caps a session's rolling window length in ticks.
	maxWindow = 1 << 20
	// maxWorkers caps a session's private worker-pool budget.
	maxWorkers = 1024
	// maxRingFloats caps the session's ring buffer at 1 GiB: window×series
	// float64 values. The series count is only known at the first push, so
	// this one is enforced there (see handlePush), or at recovery for a
	// restored window.
	maxRingFloats = 1 << 27
	// maxSessions caps the registry: without an aggregate bound the
	// per-session ceilings above are toothless (a loop of cheap creates
	// still exhausts goroutines and memory).
	maxSessions = 1024
	// maxTotalWorkers caps Σ Workers across live sessions — per-session
	// pools spawn their goroutines eagerly at create, so the aggregate
	// (not the per-session cap) is what bounds the goroutine count.
	maxTotalWorkers = 4096
	// maxTotalRingFloats caps Σ window×series across live sessions (4 GiB
	// of float64 ring buffers), reserved at each session's first push.
	maxTotalRingFloats = 1 << 29
	// maxSessionSubscribers caps one session's concurrent SSE subscribers;
	// each holds a connection, a goroutine, and a bounded event queue.
	maxSessionSubscribers = 1024
	// maxTotalSubscribers caps Σ subscribers across sessions, for the same
	// reason maxTotalWorkers exists: per-session caps alone don't bound the
	// process.
	maxTotalSubscribers = 8192
)

// errTooManySessions distinguishes registry saturation (429) from
// validation failures (400).
var errTooManySessions = fmt.Errorf("session limit (%d) reached", maxSessions)

// errWorkerBudget reports aggregate worker-budget exhaustion (429).
var errWorkerBudget = fmt.Errorf("aggregate worker budget (%d) exhausted", maxTotalWorkers)

// validID constrains session ids to URL-safe path segments.
func validID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, c := range id {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// Create registers a new session. It fails if the id is taken, malformed,
// or the streamer configuration is invalid.
func (r *Registry) Create(id string, cfg SessionConfig) (*Session, error) {
	return r.register(id, cfg, 0, func() (*pfg.Streamer, error) {
		return pfg.NewStreamer(cfg.Window, pfg.StreamOptions{
			Cluster:      pfg.Options{Method: cfg.Method, Prefix: cfg.Prefix, Workers: cfg.Workers},
			RebuildEvery: cfg.RebuildEvery,
			Incremental:  cfg.Incremental,
		})
	})
}

// restore registers a recovered session around an already-restored
// streamer. Unlike a created session, its series count is known, so any
// window ring it already holds is charged against the ring budgets up
// front. On error the caller owns closing the streamer.
func (r *Registry) restore(id string, cfg SessionConfig, st *pfg.Streamer) (*Session, error) {
	return r.register(id, cfg, st.Series()*cfg.Window, func() (*pfg.Streamer, error) { return st, nil })
}

// register is the one admission path for Create and restore: it checks the
// id, the window and worker caps, the per-session ring cap for ringNeed
// floats, then — under the registry lock — that the registry is open, the id
// free, and the session count, worker budget and aggregate ring budget have
// room. Only then does it call newStreamer (which for Create eagerly spawns
// the session's worker pool), so concurrent over-budget registrations are
// rejected before any pool exists; a transient stampede of creates cannot
// hold unbounded goroutines. It charges both budgets and registers the
// session.
func (r *Registry) register(id string, cfg SessionConfig, ringNeed int, newStreamer func() (*pfg.Streamer, error)) (*Session, error) {
	if !validID(id) {
		return nil, fmt.Errorf("session id must match [A-Za-z0-9._-]{1,64}, got %q", id)
	}
	if cfg.Window > maxWindow {
		return nil, fmt.Errorf("window %d exceeds the maximum %d", cfg.Window, maxWindow)
	}
	if cfg.Workers > maxWorkers {
		return nil, fmt.Errorf("workers %d exceeds the maximum %d", cfg.Workers, maxWorkers)
	}
	if ringNeed > maxRingFloats {
		return nil, fmt.Errorf("window ring (%d floats) exceeds the per-session cap %d", ringNeed, maxRingFloats)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, fmt.Errorf("server is shutting down")
	}
	if _, ok := r.sessions[id]; ok {
		return nil, errExists
	}
	if len(r.sessions) >= maxSessions {
		return nil, errTooManySessions
	}
	if cfg.Workers > 0 && r.workersInUse+cfg.Workers > maxTotalWorkers {
		return nil, errWorkerBudget
	}
	if r.ringInUse+ringNeed > maxTotalRingFloats {
		return nil, fmt.Errorf("aggregate window-buffer budget exhausted")
	}
	st, err := newStreamer()
	if err != nil {
		return nil, err
	}
	sess := &Session{ID: id, cfg: cfg, st: st, done: make(chan struct{}), ringReserved: ringNeed}
	sess.cache.init()
	sess.bcast.init(sess)
	if cfg.Workers > 0 {
		r.workersInUse += cfg.Workers
	}
	r.ringInUse += ringNeed
	r.sessions[id] = sess
	return sess, nil
}

// reserveRing claims floats of the aggregate ring-buffer budget for the
// session's window ring, reporting whether it fit. Called under the
// session's push lock at the first push, before the ring is allocated.
func (r *Registry) reserveRing(s *Session, floats int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ringInUse+floats > maxTotalRingFloats {
		return false
	}
	r.ringInUse += floats
	s.ringReserved = floats
	return true
}

// releaseRing returns a session's ring reservation (no-op if none), for a
// first push that reserved but admitted nothing.
func (r *Registry) releaseRing(s *Session) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ringInUse -= s.ringReserved
	s.ringReserved = 0
}

// reserveSubscriber claims one slot of the aggregate subscriber budget
// (the per-session cap is enforced by the broadcaster, which knows its own
// roster); releaseSubscriber returns it.
func (r *Registry) reserveSubscriber() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.subsInUse >= maxTotalSubscribers {
		return false
	}
	r.subsInUse++
	return true
}

func (r *Registry) releaseSubscriber() {
	r.mu.Lock()
	r.subsInUse--
	r.mu.Unlock()
}

// errExists distinguishes the duplicate-id failure (409) from validation
// failures (400).
var errExists = fmt.Errorf("session already exists")

// Get returns the session with the given id.
func (r *Registry) Get(id string) (*Session, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.sessions[id]
	return s, ok
}

// List returns all sessions sorted by id.
func (r *Registry) List() []*Session {
	r.mu.RLock()
	out := make([]*Session, 0, len(r.sessions))
	for _, s := range r.sessions {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Len returns the number of live sessions.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.sessions)
}

// Delete removes a session and closes its streamer. In-flight snapshots
// that already copied the moment state complete normally (the Streamer
// contract); later calls observe pfg.ErrClosed.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	s, ok := r.sessions[id]
	delete(r.sessions, id)
	if ok {
		if s.cfg.Workers > 0 {
			r.workersInUse -= s.cfg.Workers
		}
		r.ringInUse -= s.ringReserved
		s.ringReserved = 0
	}
	r.mu.Unlock()
	if ok {
		close(s.done)
		s.st.Close()
		// An explicit delete also deletes the on-disk state: the client
		// asked for the session to be gone, so it must not resurrect at
		// the next boot.
		s.pushMu.Lock()
		if s.dur != nil {
			s.dur.closeFiles()
			s.dur.removeState()
			s.dur = nil
		}
		s.pushMu.Unlock()
	}
	return ok
}

// closeAll marks the registry closed and closes every session; used by
// Server.Close after the HTTP listener has drained.
func (r *Registry) closeAll() {
	r.mu.Lock()
	sessions := r.sessions
	r.sessions = make(map[string]*Session)
	r.closed = true
	r.workersInUse, r.ringInUse = 0, 0
	r.mu.Unlock()
	for _, s := range sessions {
		close(s.done)
		s.st.Close()
		// Keep the on-disk state — this is shutdown, and Recover restores
		// it next boot — but release the WAL file handles.
		s.pushMu.Lock()
		if s.dur != nil {
			s.dur.closeFiles()
		}
		s.pushMu.Unlock()
	}
}
