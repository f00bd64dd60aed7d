package serve

import (
	"fmt"

	"pfg"
)

// The wire types are the HTTP/JSON compatibility surface of pfg-serve.
// Field names and encodings are stable; additions are backward-compatible
// (new optional fields), removals and renames are not allowed.

// sessionPrecision is the moment-storage precision of every session, as
// SessionInfo and meta.json spell it.
const sessionPrecision = "float64"

// CreateSessionRequest is the body of POST /v1/sessions.
type CreateSessionRequest struct {
	// ID names the session; it appears in URLs and must match
	// [A-Za-z0-9._-]{1,64}.
	ID string `json:"id"`
	// Window is the rolling window length in ticks (≥ 2).
	Window int `json:"window"`
	// Method selects the clustering algorithm: "tmfg-dbht" (default),
	// "pmfg-dbht", "complete-linkage"/"complete", "average-linkage"/"average".
	Method string `json:"method,omitempty"`
	// Prefix is the TMFG batch size (0 = default 10).
	Prefix int `json:"prefix,omitempty"`
	// Workers bounds the session's snapshot concurrency (0 = shared pool).
	Workers int `json:"workers,omitempty"`
	// RebuildEvery is the drift-rebuild period K in window slides
	// (0 = default, negative disables periodic rebuilds).
	RebuildEvery int `json:"rebuild_every,omitempty"`
	// Precision names the session's moment-storage precision. Sessions
	// store float64 moments, so only "float64" (alias "f64") or the empty
	// string is accepted; any other value is a 400.
	Precision string `json:"precision,omitempty"`
	// Incremental, when present, opts the session into the incremental
	// serving layer: snapshots reuse the last exact clustering while the
	// window's correlation drift stays inside the configured bound, falling
	// back to an exact rebuild otherwise. An empty object selects the
	// defaults. Not supported for method "pmfg-dbht".
	Incremental *IncrementalRequest `json:"incremental,omitempty"`
	// DriftCut is the flat-cut width the structure-drift signal (/driftz
	// and the drift field of SSE snapshot/delta frames) compares
	// consecutive generations at (0 = default 8, clamped to the series
	// count).
	DriftCut int `json:"drift_cut,omitempty"`
}

// config converts the request into a session configuration: it parses the
// method name, checks the precision and drift_cut, and turns the incremental
// layer on when the request carries an incremental object. Create and
// durable recovery share it, since meta.json stores this same wire form.
// The registry checks the window and worker limits.
func (req CreateSessionRequest) config() (SessionConfig, error) {
	method, err := parseMethod(req.Method)
	if err != nil {
		return SessionConfig{}, err
	}
	switch req.Precision {
	case "", sessionPrecision, "f64":
	default:
		return SessionConfig{}, fmt.Errorf("unsupported precision %q: sessions store float64 moments (want %q)", req.Precision, sessionPrecision)
	}
	if req.DriftCut < 0 {
		return SessionConfig{}, fmt.Errorf("drift_cut must be non-negative, got %d", req.DriftCut)
	}
	cfg := SessionConfig{
		Window:       req.Window,
		Method:       method,
		Prefix:       req.Prefix,
		Workers:      req.Workers,
		RebuildEvery: req.RebuildEvery,
		DriftCut:     req.DriftCut,
	}
	if req.Incremental != nil {
		cfg.Incremental = pfg.IncrementalOptions{
			Enabled:        true,
			DriftThreshold: req.Incremental.DriftThreshold,
			MaxStale:       req.Incremental.MaxStale,
		}
	}
	return cfg, nil
}

// IncrementalRequest configures the incremental serving layer of a session;
// the fields mirror pfg.IncrementalOptions and zero values select the same
// defaults (ε = 0.02, max staleness 64).
type IncrementalRequest struct {
	// DriftThreshold is ε: the largest entrywise correlation drift under
	// which a stale reference clustering may still be served (0 = default;
	// negative forces an exact rebuild on every snapshot).
	DriftThreshold float64 `json:"drift_threshold,omitempty"`
	// MaxStale bounds how many ticks a reference clustering may be served
	// past its build (0 = default, negative disables the bound).
	MaxStale int `json:"max_stale,omitempty"`
}

// SessionInfo describes one session; returned by create/get/list and
// embedded per-session in /statsz.
type SessionInfo struct {
	ID           string `json:"id"`
	Window       int    `json:"window"`
	Method       string `json:"method"`
	Prefix       int    `json:"prefix"`
	Workers      int    `json:"workers"`
	RebuildEvery int    `json:"rebuild_every"`
	// Precision is the session's moment-storage precision: always
	// "float64".
	Precision string `json:"precision"`
	// Series is the number of series, fixed by the first admitted push
	// (0 before that).
	Series int `json:"series"`
	// Len is the number of ticks currently in the window.
	Len int `json:"len"`
	// Generation is the monotonic version stamp of the window state; it
	// advances on every admitted tick and keys the snapshot cache.
	Generation uint64 `json:"generation"`
	// Exact reports whether the next snapshot is bit-identical to a batch
	// recomputation over the window.
	Exact bool `json:"exact"`
	// Incremental reports whether the session runs the incremental serving
	// layer.
	Incremental bool `json:"incremental,omitempty"`
	// RingBytes and BandBytes are the resident bytes of the session's window
	// ring and moment band (0 until the first admitted push fixes the series
	// count).
	RingBytes int `json:"ring_bytes"`
	BandBytes int `json:"band_bytes"`
	// StaleTicks and Drift describe the latest computed generation's
	// snapshot: how many ticks older than the window its clustering is, and
	// the entrywise correlation drift accumulated since it was built. For
	// sequential traffic that is the last snapshot served. Both are zero for
	// exact snapshots and for non-incremental sessions.
	StaleTicks int     `json:"stale_ticks,omitempty"`
	Drift      float64 `json:"drift,omitempty"`
}

// SessionList is the body of GET /v1/sessions.
type SessionList struct {
	Sessions []SessionInfo `json:"sessions"`
}

// PushRequest is the body of POST /v1/sessions/{id}/push. Exactly one of
// Sample (one tick) or Samples (a batch, applied in order) must be set.
type PushRequest struct {
	Sample  []float64   `json:"sample,omitempty"`
	Samples [][]float64 `json:"samples,omitempty"`
}

// PushResponse reports how much of a push was admitted. Ticks are applied
// in order and the first rejected tick aborts the rest, so Admitted is also
// the index of the failing tick when an error is returned.
type PushResponse struct {
	Admitted   int    `json:"admitted"`
	Len        int    `json:"len"`
	Generation uint64 `json:"generation"`
}

// SnapshotResponse is the body of GET /v1/sessions/{id}/snapshot. All
// clients that coalesced onto (or hit the cache of) one clustering run
// receive byte-identical bodies for the same query: every field is derived
// from the cached (generation, Result) pair, never from per-request state.
type SnapshotResponse struct {
	Session string `json:"session"`
	Method  string `json:"method"`
	Window  int    `json:"window"`
	// Generation stamps the window state the result was clustered from.
	Generation uint64          `json:"generation"`
	Result     *pfg.ResultJSON `json:"result"`
	// Drift compares this generation's clustering structure against the
	// previously computed generation's (see drift.go). It is set only on
	// SSE "snapshot" frames, never on the GET /snapshot body: the GET body
	// is a pure function of the window state (recovered processes serve
	// byte-identical bodies), while the drift baseline is which generation
	// this process clustered last — per-process serving history.
	Drift *StructureDrift `json:"drift,omitempty"`
}

// DeltaResponse is the data payload of a "delta" event on
// GET /v1/sessions/{id}/events: the sparse change set transforming the
// subscriber's view at FromGeneration into the view at Generation. A client
// applies it with pfg's ResultJSON.ApplyDelta; the reconstruction is
// byte-identical to the full SnapshotResponse.Result of Generation. A
// subscriber whose last delivered generation is not FromGeneration (it just
// subscribed, or events were dropped) receives a full "snapshot" event
// instead — a delta only ever extends the previous event published for the
// same cut set.
type DeltaResponse struct {
	Session string `json:"session"`
	Method  string `json:"method"`
	Window  int    `json:"window"`
	// FromGeneration is the base the delta applies to; Generation is the
	// window state it reconstructs.
	FromGeneration uint64               `json:"from_generation"`
	Generation     uint64               `json:"generation"`
	Delta          *pfg.ResultDeltaJSON `json:"delta"`
	// Drift is the same structure-drift record the full snapshot body of
	// Generation carries (absent when none was computed).
	Drift *StructureDrift `json:"drift,omitempty"`
}

// DroppedEvent is the data payload of a "dropped" event: the subscriber's
// bounded queue overflowed and Dropped updates were discarded (drop-to-
// latest). The next "snapshot" event re-bases the client; deltas resume
// from there.
type DroppedEvent struct {
	Dropped uint64 `json:"dropped"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status   string  `json:"status"`
	UptimeS  float64 `json:"uptime_s"`
	Sessions int     `json:"sessions"`
}

// parseMethod maps the wire method names (and the pfg-cluster CLI
// shorthands) to pfg.Method; the empty string selects TMFG+DBHT.
func parseMethod(s string) (pfg.Method, error) {
	switch s {
	case "", "tmfg-dbht":
		return pfg.TMFGDBHT, nil
	case "pmfg-dbht":
		return pfg.PMFGDBHT, nil
	case "complete", "complete-linkage":
		return pfg.CompleteLinkage, nil
	case "average", "average-linkage":
		return pfg.AverageLinkage, nil
	default:
		return 0, fmt.Errorf("unknown method %q", s)
	}
}
