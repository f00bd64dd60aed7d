package serve

// Durability at the serving layer: the full checkpoint + WAL + recovery
// protocol driven through the HTTP surface, with process death simulated by
// abandoning one Server and booting a fresh one over the same state
// directory. The shadow oracle is a second server with no crash history fed
// the same tick prefix: recovered snapshot bodies must be byte-identical.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// durableOptions is the test configuration: small checkpoint cadence so a
// short push history spans several checkpoints, SyncNone so tests do not
// fsync, Workers 1 via the session config for deterministic bodies.
func durableOptions(dir string) Options {
	return Options{StateDir: dir, CheckpointEvery: 6}
}

// durableSession is the canonical test session: explicit RebuildEvery well
// past the push count, so generation == admitted ticks throughout and the
// tests can map generations back to tick prefixes.
func durableSession(h *testServer, id string, incremental bool) {
	h.t.Helper()
	req := CreateSessionRequest{ID: id, Window: 12, Workers: 1, RebuildEvery: 64}
	if incremental {
		req.Incremental = &IncrementalRequest{DriftThreshold: 0.05, MaxStale: 16}
	}
	var info SessionInfo
	h.mustJSON("POST", "/v1/sessions", req, http.StatusCreated, &info)
}

func pushTicks(h *testServer, id string, stream [][]float64) {
	h.t.Helper()
	var pr PushResponse
	h.mustJSON("POST", "/v1/sessions/"+id+"/push", PushRequest{Samples: stream}, http.StatusOK, &pr)
	if pr.Admitted != len(stream) {
		h.t.Fatalf("admitted %d of %d", pr.Admitted, len(stream))
	}
}

func snapshotBody(h *testServer, id string) []byte {
	h.t.Helper()
	status, body := h.do("GET", "/v1/sessions/"+id+"/snapshot?k=3", nil)
	if status != http.StatusOK {
		h.t.Fatalf("snapshot: status %d, body %s", status, body)
	}
	return body
}

func sessionGen(h *testServer, id string) uint64 {
	h.t.Helper()
	var info SessionInfo
	h.mustJSON("GET", "/v1/sessions/"+id, nil, http.StatusOK, &info)
	return info.Generation
}

func statsView(h *testServer) StatsSnapshot {
	h.t.Helper()
	var v StatsSnapshot
	h.mustJSON("GET", "/statsz", nil, http.StatusOK, &v)
	return v
}

// newestFile returns the lexicographically last file matching prefix in a
// session's state directory — with zero-padded generation names, the newest.
func newestFile(t *testing.T, dir, id, prefix string) string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, id))
	if err != nil {
		t.Fatal(err)
	}
	newest := ""
	for _, e := range ents {
		if len(e.Name()) >= len(prefix) && e.Name()[:len(prefix)] == prefix {
			if newest == "" || e.Name() > newest {
				newest = e.Name()
			}
		}
	}
	if newest == "" {
		t.Fatalf("no %q files under %s/%s", prefix, dir, id)
	}
	return filepath.Join(dir, id, newest)
}

// TestDurableRecoverAfterKill is the hard-kill path: no drain, no final
// checkpoint — recovery = newest checkpoint + WAL suffix replay. Both a
// plain and an incremental session ride through it.
func TestDurableRecoverAfterKill(t *testing.T) {
	dir := t.TempDir()
	stream := ticks(t, 5, 30, 3)

	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "plain", false)
	durableSession(h1, "inc", true)
	// 20 ticks in uneven batches: crosses the every-6 checkpoint cadence,
	// leaving ticks 19..20 only in the live WAL segment.
	for _, batch := range [][2]int{{0, 7}, {7, 13}, {13, 19}, {19, 20}} {
		pushTicks(h1, "plain", stream[batch[0]:batch[1]])
		pushTicks(h1, "inc", stream[batch[0]:batch[1]])
	}
	wantPlain := snapshotBody(h1, "plain")
	wantInc := snapshotBody(h1, "inc")
	wantGen := sessionGen(h1, "plain")
	if wantGen != 20 {
		t.Fatalf("generation %d after 20 pushes, want 20 (rebuild cadence leaked in)", wantGen)
	}
	// Kill: tear down without CheckpointAll. (Server.Close keeps disk
	// state; the last checkpoint is stale by several WAL-only pushes.)
	h1.ts.Close()
	h1.srv.Close()

	h2 := newTestServer(t, durableOptions(dir))
	n, err := h2.srv.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d sessions, want 2", n)
	}
	if got := sessionGen(h2, "plain"); got != wantGen {
		t.Fatalf("recovered at generation %d, want %d", got, wantGen)
	}
	if got := snapshotBody(h2, "plain"); !bytes.Equal(got, wantPlain) {
		t.Fatalf("recovered snapshot body diverges:\n%s\nvs\n%s", got, wantPlain)
	}
	if got := snapshotBody(h2, "inc"); !bytes.Equal(got, wantInc) {
		t.Fatalf("recovered incremental snapshot body diverges:\n%s\nvs\n%s", got, wantInc)
	}
	v := statsView(h2)
	if v.RecoveredSessions != 2 {
		t.Fatalf("recovered_sessions = %d", v.RecoveredSessions)
	}
	if v.ReplayedFrames == 0 {
		t.Fatal("hard kill recovered without replaying any WAL frames")
	}
	if v.DurabilityErrors != 0 || v.TornTruncations != 0 {
		t.Fatalf("clean recovery reported errors: %+v", v)
	}

	// The recovered session keeps accepting pushes and stays in lockstep
	// with an uncrashed shadow fed the identical 30-tick history.
	pushTicks(h2, "plain", stream[20:])
	shadow := newTestServer(t, durableOptions(t.TempDir()))
	durableSession(shadow, "plain", false)
	pushTicks(shadow, "plain", stream)
	if got, want := snapshotBody(h2, "plain"), snapshotBody(shadow, "plain"); !bytes.Equal(got, want) {
		t.Fatalf("post-recovery evolution diverges from shadow:\n%s\nvs\n%s", got, want)
	}
}

// TestDurableRecoverLegacyMeta: a state dir written when meta.json still
// carried the incremental repair_budget and validate_every knobs recovers
// (readMeta ignores fields it no longer knows) and serves the generation it
// held, byte-identical to the body served before the restart.
func TestDurableRecoverLegacyMeta(t *testing.T) {
	dir := t.TempDir()
	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "inc", true)
	pushTicks(h1, "inc", ticks(t, 5, 15, 5))
	want := snapshotBody(h1, "inc")
	wantGen := sessionGen(h1, "inc")
	h1.ts.Close()
	h1.srv.Close()

	path := filepath.Join(dir, "inc", "meta.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	incMeta, ok := meta["incremental"].(map[string]any)
	if !ok {
		t.Fatalf("meta.json has no incremental object: %s", raw)
	}
	incMeta["repair_budget"] = 2
	incMeta["validate_every"] = 3
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newTestServer(t, durableOptions(dir))
	if n, err := h2.srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v", n, err)
	}
	var info SessionInfo
	h2.mustJSON("GET", "/v1/sessions/inc", nil, http.StatusOK, &info)
	if info.Generation != wantGen || !info.Incremental {
		t.Fatalf("recovered %+v, want incremental at generation %d", info, wantGen)
	}
	if got := snapshotBody(h2, "inc"); !bytes.Equal(got, want) {
		t.Fatalf("legacy-meta recovery diverges:\n%s\nvs\n%s", got, want)
	}
}

// TestDurableRecoverSkipsFloat32Meta: a session whose meta.json names the
// float32 precision (written by a build that could store float32 moments)
// does not recover. Recovery logs and counts it, serves the other sessions
// unchanged, and leaves its directory untouched so an older binary can
// still recover it.
func TestDurableRecoverSkipsFloat32Meta(t *testing.T) {
	dir := t.TempDir()
	stream := ticks(t, 5, 15, 6)
	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "keep", false)
	durableSession(h1, "f32", false)
	pushTicks(h1, "keep", stream)
	pushTicks(h1, "f32", stream)
	want := snapshotBody(h1, "keep")
	h1.ts.Close()
	h1.srv.Close()

	path := filepath.Join(dir, "f32", "meta.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	meta["precision"] = "float32"
	if raw, err = json.Marshal(meta); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	before := dirContents(t, filepath.Join(dir, "f32"))

	h2 := newTestServer(t, durableOptions(dir))
	errsBefore := statsView(h2).DurabilityErrors
	if n, err := h2.srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v; want 1 session", n, err)
	}
	if got := statsView(h2).DurabilityErrors; got != errsBefore+1 {
		t.Fatalf("durability_errors = %d, want %d", got, errsBefore+1)
	}
	if status, body := h2.do("GET", "/v1/sessions/f32", nil); status != http.StatusNotFound {
		t.Fatalf("float32 session served after recovery: %d %s", status, body)
	}
	if got := snapshotBody(h2, "keep"); !bytes.Equal(got, want) {
		t.Fatalf("surviving session diverges:\n%s\nvs\n%s", got, want)
	}
	after := dirContents(t, filepath.Join(dir, "f32"))
	if len(after) != len(before) {
		t.Fatalf("skipped session's files changed: %d files before, %d after", len(before), len(after))
	}
	for name, b := range before {
		if !bytes.Equal(after[name], b) {
			t.Fatalf("skipped session's %s changed or vanished", name)
		}
	}
}

// dirContents reads every file in dir, keyed by name.
func dirContents(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

// TestDurableRecoverTornWAL truncates the live WAL segment mid-frame (the
// crash landed inside a write): recovery must stop at the last durable
// frame and match a shadow fed exactly that prefix.
func TestDurableRecoverTornWAL(t *testing.T) {
	dir := t.TempDir()
	stream := ticks(t, 5, 16, 9)

	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "s", false)
	// The cadence check runs per HTTP batch: 6 ticks trigger the periodic
	// checkpoint (and WAL rotation), then a short batch of 3 stays
	// WAL-only — frames 7..9 live in wal-6 alone.
	pushTicks(h1, "s", stream[:6])
	pushTicks(h1, "s", stream[6:9])
	h1.ts.Close()
	h1.srv.Close()

	// Tear the tail: the last frame of the newest WAL segment loses 5
	// bytes, so frames 7 and 8 survive and frame 9 is torn off.
	wal := newestFile(t, dir, "s", "wal-")
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wal, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newTestServer(t, durableOptions(dir))
	if n, err := h2.srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v", n, err)
	}
	gen := sessionGen(h2, "s")
	if gen != 8 {
		t.Fatalf("recovered at generation %d, want 8 (last durable frame)", gen)
	}
	v := statsView(h2)
	if v.TornTruncations == 0 {
		t.Fatal("torn tail not counted")
	}

	shadow := newTestServer(t, durableOptions(t.TempDir()))
	durableSession(shadow, "s", false)
	pushTicks(shadow, "s", stream[:8])
	if got, want := snapshotBody(h2, "s"), snapshotBody(shadow, "s"); !bytes.Equal(got, want) {
		t.Fatalf("torn-tail recovery diverges from the durable prefix:\n%s\nvs\n%s", got, want)
	}
}

// TestDurableRecoverCorruptCheckpoint flips a byte in the newest checkpoint:
// recovery must fall back to the retained older checkpoint and replay its
// longer WAL suffix to the same final state.
func TestDurableRecoverCorruptCheckpoint(t *testing.T) {
	dir := t.TempDir()
	stream := ticks(t, 5, 16, 5)

	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "s", false)
	pushTicks(h1, "s", stream[:8])   // checkpoints at 0 and 6
	pushTicks(h1, "s", stream[8:14]) // checkpoint at 12, WAL holds 13..14
	want := snapshotBody(h1, "s")
	h1.ts.Close()
	h1.srv.Close()

	ck := newestFile(t, dir, "s", "ckpt-")
	b, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(ck, b, 0o644); err != nil {
		t.Fatal(err)
	}

	h2 := newTestServer(t, durableOptions(dir))
	if n, err := h2.srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v", n, err)
	}
	if gen := sessionGen(h2, "s"); gen != 14 {
		t.Fatalf("recovered at generation %d, want 14 via the fallback checkpoint", gen)
	}
	if got := snapshotBody(h2, "s"); !bytes.Equal(got, want) {
		t.Fatalf("fallback recovery diverges:\n%s\nvs\n%s", got, want)
	}
	if v := statsView(h2); v.TornTruncations == 0 {
		t.Fatal("unusable checkpoint not counted")
	}
}

// TestDurableDrainRecover is the zero-downtime path: CheckpointAll (what
// pfg-serve runs after draining) folds the WAL into a final checkpoint, so
// the next boot replays nothing.
func TestDurableDrainRecover(t *testing.T) {
	dir := t.TempDir()
	stream := ticks(t, 4, 10, 21)

	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "s", false)
	pushTicks(h1, "s", stream)
	want := snapshotBody(h1, "s")
	wantGen := sessionGen(h1, "s")
	if n := h1.srv.CheckpointAll(); n != 1 {
		t.Fatalf("CheckpointAll = %d", n)
	}
	h1.ts.Close()
	h1.srv.Close()

	h2 := newTestServer(t, durableOptions(dir))
	if n, err := h2.srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v", n, err)
	}
	if gen := sessionGen(h2, "s"); gen != wantGen {
		t.Fatalf("generation %d, want %d", gen, wantGen)
	}
	if got := snapshotBody(h2, "s"); !bytes.Equal(got, want) {
		t.Fatal("drained recovery diverges")
	}
	if v := statsView(h2); v.ReplayedFrames != 0 {
		t.Fatalf("clean drain still replayed %d frames", v.ReplayedFrames)
	}
}

// TestDurableDeleteRemovesState: an explicit DELETE must not resurrect at
// the next boot — and a pre-first-push session must.
func TestDurableDeleteRemovesState(t *testing.T) {
	dir := t.TempDir()
	h1 := newTestServer(t, durableOptions(dir))
	durableSession(h1, "doomed", false)
	durableSession(h1, "empty", false)
	pushTicks(h1, "doomed", ticks(t, 4, 5, 2))
	if status, _ := h1.do("DELETE", "/v1/sessions/doomed", nil); status != http.StatusNoContent {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "doomed")); !os.IsNotExist(err) {
		t.Fatalf("deleted session left state on disk: %v", err)
	}
	h1.ts.Close()
	h1.srv.Close()

	h2 := newTestServer(t, durableOptions(dir))
	if n, err := h2.srv.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: %d, %v — want only the empty session", n, err)
	}
	var info SessionInfo
	h2.mustJSON("GET", "/v1/sessions/empty", nil, http.StatusOK, &info)
	if info.Generation != 0 || info.Window != 12 {
		t.Fatalf("empty session recovered wrong: %+v", info)
	}
	if status, _ := h2.do("GET", "/v1/sessions/doomed", nil); status != http.StatusNotFound {
		t.Fatal("deleted session resurrected")
	}
	// And it still works: pushes land, snapshots serve.
	pushTicks(h2, "empty", ticks(t, 4, 8, 4))
	if body := snapshotBody(h2, "empty"); len(body) == 0 {
		t.Fatal("no snapshot")
	}
}

// TestDurableStatsCounters: the write-path counters move with the protocol.
func TestDurableStatsCounters(t *testing.T) {
	dir := t.TempDir()
	h := newTestServer(t, durableOptions(dir))
	durableSession(h, "s", false)
	stream := ticks(t, 4, 14, 6)
	pushTicks(h, "s", stream[:7])
	pushTicks(h, "s", stream[7:])
	v := statsView(h)
	if v.WALFrames != 14 {
		t.Fatalf("wal_frames = %d, want 14", v.WALFrames)
	}
	if v.WALBytes == 0 || v.CheckpointBytes == 0 {
		t.Fatalf("zero byte counters: %+v", v)
	}
	// Initial checkpoint + one periodic per batch (each batch of 7 crosses
	// the cadence of 6).
	if v.Checkpoints != 3 {
		t.Fatalf("checkpoints = %d, want 3", v.Checkpoints)
	}
	if v.DurabilityErrors != 0 {
		t.Fatalf("durability_errors = %d", v.DurabilityErrors)
	}
	// Layout sanity: newest-2 checkpoints retained, exactly one live WAL
	// per retained checkpoint generation at most.
	ents, err := os.ReadDir(filepath.Join(dir, "s"))
	if err != nil {
		t.Fatal(err)
	}
	cks := 0
	for _, e := range ents {
		if _, ok := parseGen(e.Name(), "ckpt-", ".pfgc"); ok {
			cks++
		}
	}
	if cks != ckptKeep {
		t.Fatalf("%d checkpoints on disk, want %d", cks, ckptKeep)
	}
}
