package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"pfg"
	"pfg/internal/ckpt"
)

// Session durability: with Options.StateDir set, every session's window
// state survives the process. The on-disk layout is one directory per
// session id:
//
//	<state-dir>/<id>/meta.json          serving config (method/prefix/workers
//	                                    — what a checkpoint deliberately
//	                                    does not carry), CreateSessionRequest
//	                                    wire form, written atomically
//	<state-dir>/<id>/ckpt-<gen>.pfgc    engine checkpoints (internal/ckpt
//	                                    wire form), newest two retained
//	<state-dir>/<id>/wal-<gen>.wal      push WAL segments; wal-<g> logs the
//	                                    pushes admitted after the checkpoint
//	                                    at generation <g>
//
// The write protocol, always under the session's push lock (the same lock
// that serializes engine writes, so frames and checkpoints are ordered
// exactly like the pushes they record):
//
//   - every admitted push appends one WAL frame stamped with its post-push
//     generation; the segment is fsynced per HTTP batch (SyncBatch, the
//     default), per frame (SyncAlways), or left to the OS (SyncNone)
//   - every CheckpointEvery admitted pushes — and at drain (CheckpointAll)
//     — the full engine state is checkpointed: written to a tmp file,
//     fsynced, renamed to ckpt-<gen>.pfgc, directory fsynced, then the WAL
//     rotates to a fresh wal-<gen>.wal and obsolete files are pruned
//
// Recovery (Server.Recover, at boot) inverts it per session directory:
// load the newest checkpoint that decodes cleanly (falling back to the
// retained older one), replay the WAL suffix — frames at or below the
// recovered generation are skipped, each replayed push must land exactly on
// its frame's generation stamp, and a torn tail ends replay at the last
// durable frame — then checkpoint the recovered state and resume serving at
// that generation. Because checkpoint restore is bit-exact and WAL replay
// re-runs the same Push arithmetic, a recovered session's snapshots are
// byte-identical to those of a process that never died.
//
// A disk failure after a session is up never fails the client's push — the
// engine state in memory is still correct; durability for that session is
// marked broken, counted (durability_errors), and logged, and the session
// keeps serving non-durably until restart.

// defaultCheckpointEvery is the checkpoint cadence in admitted pushes when
// Options.CheckpointEvery is 0: at n=512 a checkpoint of a 4096 window is
// ~18 MiB (16 MiB ring, 2 MiB band), so every 64 pushes amortizes to
// hundreds of KiB of checkpoint I/O per push on top of the WAL frame.
const defaultCheckpointEvery = 64

// ckptKeep is how many checkpoints a session retains: the newest plus one
// fallback, so a checkpoint torn by a crash mid-rename still leaves a valid
// older one whose WAL suffix (kept alongside) replays past it.
const ckptKeep = 2

// durable is one session's durability state. All fields are guarded by the
// session's pushMu, under which every method is called.
type durable struct {
	dir    string
	every  int
	policy ckpt.SyncPolicy
	ins    *instruments // the server's counters and histograms

	wal     *ckpt.WALWriter
	walF    *os.File
	ckptGen uint64 // generation of the newest on-disk checkpoint
	pushes  int    // admitted pushes since that checkpoint
	broken  bool   // disk trouble: session keeps serving, durability off
}

// attachDurability brings a newly created session under the durability
// protocol: session directory, meta.json, an initial checkpoint (of the
// empty, pre-first-push state — so every session directory always holds at
// least one checkpoint), and an open WAL segment. Failures disable
// durability for this session only.
func (s *Server) attachDurability(sess *Session) {
	if s.opts.StateDir == "" {
		return
	}
	d := &durable{
		dir:    filepath.Join(s.opts.StateDir, sess.ID),
		every:  s.opts.CheckpointEvery,
		policy: s.opts.Fsync,
		ins:    &s.ins,
	}
	if d.every <= 0 {
		d.every = defaultCheckpointEvery
	}
	sess.pushMu.Lock()
	defer sess.pushMu.Unlock()
	if err := d.init(sess); err != nil {
		s.ins.durabilityErrors.Add(1)
		log.Printf("serve: session %q: durability disabled: %v", sess.ID, err)
		return
	}
	sess.dur = d
}

func (d *durable) init(sess *Session) error {
	if err := os.MkdirAll(d.dir, 0o755); err != nil {
		return err
	}
	if err := d.writeMeta(sess); err != nil {
		return err
	}
	return d.checkpoint(sess)
}

// writeMeta persists the serving configuration a checkpoint does not carry,
// atomically (tmp + rename).
func (d *durable) writeMeta(sess *Session) error {
	meta := CreateSessionRequest{
		ID:           sess.ID,
		Window:       sess.cfg.Window,
		Method:       sess.cfg.Method.String(),
		Prefix:       sess.cfg.Prefix,
		Workers:      sess.cfg.Workers,
		RebuildEvery: sess.cfg.RebuildEvery,
		Precision:    sessionPrecision,
		DriftCut:     sess.cfg.DriftCut,
	}
	if sess.cfg.Incremental.Enabled {
		meta.Incremental = &IncrementalRequest{
			DriftThreshold: sess.cfg.Incremental.DriftThreshold,
			MaxStale:       sess.cfg.Incremental.MaxStale,
		}
	}
	b, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	tmp := filepath.Join(d.dir, "meta.tmp")
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(d.dir, "meta.json"))
}

// noteAdmitted logs one admitted push (called under pushMu, right after the
// engine accepted it) with its post-push generation stamp.
func (d *durable) noteAdmitted(gen uint64, sample []float64) {
	if d.broken {
		return
	}
	before := d.wal.Bytes()
	if err := d.wal.Append(gen, sample); err != nil {
		d.fail("wal append", err)
		return
	}
	frameBytes := uint64(d.wal.Bytes() - before)
	d.ins.walFrames.Add(1)
	d.ins.walBytes.Add(frameBytes)
	d.ins.walFrameBytes.Observe(frameBytes)
	d.pushes++
}

// afterBatch ends one HTTP push batch: the WAL frames become durable
// (SyncBatch), and the periodic checkpoint fires once enough pushes have
// accumulated.
func (d *durable) afterBatch(sess *Session) {
	if d.broken {
		return
	}
	if err := d.wal.Flush(); err != nil {
		d.fail("wal flush", err)
		return
	}
	if d.pushes >= d.every {
		if err := d.checkpoint(sess); err != nil {
			d.fail("checkpoint", err)
		}
	}
}

// checkpoint writes the session's full state via tmp-file + rename + dir
// fsync, rotates the WAL to a fresh segment starting at the checkpointed
// generation, and prunes files older than the retained fallback.
func (d *durable) checkpoint(sess *Session) error {
	start := time.Now()
	tmp := filepath.Join(d.dir, "ckpt.tmp")
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	cw := &countWriter{w: f}
	gen, err := sess.st.Checkpoint(cw)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, filepath.Join(d.dir, ckptName(gen))); err != nil {
		return err
	}
	if err := syncDir(d.dir); err != nil {
		return err
	}
	if err := d.rotateWAL(gen); err != nil {
		return err
	}
	d.ckptGen = gen
	d.pushes = 0
	d.prune()
	elapsed := time.Since(start)
	d.ins.checkpoints.Add(1)
	d.ins.checkpointBytes.Add(uint64(cw.n))
	d.ins.ckptNs.Observe(uint64(elapsed))
	d.ins.ckptBytes.Observe(uint64(cw.n))
	return nil
}

// rotateWAL closes the current segment and opens wal-<gen>.wal: from here
// on, frames record pushes after the checkpoint at gen.
func (d *durable) rotateWAL(gen uint64) error {
	if d.walF != nil {
		d.walF.Close()
		d.walF, d.wal = nil, nil
	}
	f, err := os.Create(filepath.Join(d.dir, walName(gen)))
	if err != nil {
		return err
	}
	w, err := ckpt.NewWALWriter(f, gen, d.policy)
	if err != nil {
		f.Close()
		return err
	}
	d.walF, d.wal = f, w
	return nil
}

// prune removes checkpoints beyond the newest ckptKeep and WAL segments
// older than the oldest retained checkpoint. Best-effort: leftovers cost
// disk, not correctness (recovery skips what it does not need).
func (d *durable) prune() {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	var ckpts []uint64
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), "ckpt-", ".pfgc"); ok {
			ckpts = append(ckpts, g)
		}
	}
	if len(ckpts) <= ckptKeep {
		return
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] > ckpts[j] })
	oldestKept := ckpts[ckptKeep-1]
	for _, g := range ckpts[ckptKeep:] {
		os.Remove(filepath.Join(d.dir, ckptName(g)))
	}
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), "wal-", ".wal"); ok && g < oldestKept {
			os.Remove(filepath.Join(d.dir, e.Name()))
		}
	}
}

// fail turns a disk error into non-durable-but-serving: logged, counted,
// and final for this session's lifetime (recovery at next boot replays the
// durable prefix written before the failure).
func (d *durable) fail(op string, err error) {
	d.broken = true
	d.ins.durabilityErrors.Add(1)
	log.Printf("serve: %s: %s failed, durability disabled for this session: %v", filepath.Base(d.dir), op, err)
}

// closeFiles releases the WAL file handle (session delete / server close).
func (d *durable) closeFiles() {
	if d.walF != nil {
		d.walF.Close()
		d.walF, d.wal = nil, nil
	}
}

// removeState deletes a session's on-disk state; an explicitly deleted
// session must not resurrect at the next boot.
func (d *durable) removeState() {
	os.RemoveAll(d.dir)
}

// CheckpointAll takes a final checkpoint of every durable session — the
// drain half of zero-downtime restart. pfg-serve calls it after the HTTP
// listener has drained (no pushes in flight) and before Close; the next
// boot's Recover then restores every session at exactly this generation
// with an empty WAL suffix. Returns the number of sessions checkpointed.
func (s *Server) CheckpointAll() int {
	n := 0
	for _, sess := range s.reg.List() {
		sess.pushMu.Lock()
		if d := sess.dur; d != nil && !d.broken {
			if err := d.checkpoint(sess); err != nil {
				d.fail("final checkpoint", err)
			} else {
				n++
			}
		}
		sess.pushMu.Unlock()
	}
	return n
}

// Recover scans StateDir and restores every recoverable session: newest
// valid checkpoint (falling back to the retained older one), WAL-suffix
// replay, then a fresh checkpoint at the recovered generation. Call it
// after New and before serving traffic. Sessions whose state cannot be
// restored are logged, counted, and skipped — one bad directory does not
// block the rest of the fleet. Returns the number of sessions recovered.
func (s *Server) Recover() (int, error) {
	if s.opts.StateDir == "" {
		return 0, nil
	}
	if err := os.MkdirAll(s.opts.StateDir, 0o755); err != nil {
		return 0, err
	}
	ents, err := os.ReadDir(s.opts.StateDir)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, e := range ents {
		if !e.IsDir() || !validID(e.Name()) {
			continue
		}
		if err := s.recoverSession(e.Name()); err != nil {
			s.ins.durabilityErrors.Add(1)
			log.Printf("serve: recover %q: session skipped: %v", e.Name(), err)
			continue
		}
		n++
	}
	return n, nil
}

func (s *Server) recoverSession(id string) error {
	dir := filepath.Join(s.opts.StateDir, id)
	cfg, cluster, err := readMeta(dir)
	if err != nil {
		return fmt.Errorf("meta.json: %w", err)
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var ckptGens, walGens []uint64
	for _, e := range ents {
		if g, ok := parseGen(e.Name(), "ckpt-", ".pfgc"); ok {
			ckptGens = append(ckptGens, g)
		}
		if g, ok := parseGen(e.Name(), "wal-", ".wal"); ok {
			walGens = append(walGens, g)
		}
	}
	if len(ckptGens) == 0 {
		return fmt.Errorf("no checkpoint files")
	}
	// Newest checkpoint that decodes cleanly wins; a torn or corrupt newer
	// one (crash mid-write) falls back to the retained older checkpoint,
	// whose WAL segments were kept precisely for this.
	sort.Slice(ckptGens, func(i, j int) bool { return ckptGens[i] > ckptGens[j] })
	var st *pfg.Streamer
	for _, g := range ckptGens {
		f, err := os.Open(filepath.Join(dir, ckptName(g)))
		if err != nil {
			continue
		}
		st, err = pfg.RestoreStreamer(f, cluster)
		f.Close()
		if err == nil {
			break
		}
		st = nil
		s.ins.tornTruncations.Add(1)
		log.Printf("serve: recover %q: checkpoint %s unusable: %v", id, ckptName(g), err)
	}
	if st == nil {
		return fmt.Errorf("no usable checkpoint")
	}

	// Replay the WAL suffix in segment order. Frames the checkpoint already
	// covers are skipped; each replayed push must land exactly on its
	// frame's generation stamp — a gap (missing segment) or a divergence
	// ends replay at the last consistent state.
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
	replayed := uint64(0)
replay:
	for _, g := range walGens {
		f, err := os.Open(filepath.Join(dir, walName(g)))
		if err != nil {
			continue
		}
		_, frames, torn, err := ckpt.ReadWAL(f)
		f.Close()
		if err != nil {
			log.Printf("serve: recover %q: %s: %v", id, walName(g), err)
			continue
		}
		if torn {
			s.ins.tornTruncations.Add(1)
		}
		for _, fr := range frames {
			cur := st.Generation()
			if fr.Gen <= cur {
				continue
			}
			// One push advances the generation by 1, or by 2 when it
			// triggers the periodic rebuild; a stamp further ahead means a
			// lost segment between here and the checkpoint.
			if fr.Gen > cur+2 {
				log.Printf("serve: recover %q: WAL gap at generation %d (have %d); replay stops", id, fr.Gen, cur)
				break replay
			}
			if err := st.Push(fr.Sample); err != nil {
				log.Printf("serve: recover %q: replay push at generation %d rejected: %v; replay stops", id, fr.Gen, err)
				break replay
			}
			if got := st.Generation(); got != fr.Gen {
				log.Printf("serve: recover %q: replay landed on generation %d, frame says %d; replay stops", id, got, fr.Gen)
				break replay
			}
			replayed++
		}
	}
	s.ins.replayedFrames.Add(replayed)

	// The checkpoint is authoritative for everything it carries; meta.json
	// only contributes what it does not (method/prefix/workers). Reconcile
	// the Info-visible config with the restored streamer.
	cfg.Window = st.Window()

	sess, err := s.reg.restore(id, cfg, st)
	if err != nil {
		st.Close()
		return err
	}
	s.ins.recoveredSessions.Add(1)
	// A recovered session is instrumented exactly like a created one
	// (SetMetrics applies to the restored engine), then re-checkpointed at
	// the recovered generation: the WAL suffix just replayed is folded in,
	// and the session resumes with a clean segment.
	s.attachMetrics(sess)
	s.attachDurability(sess)
	return nil
}

// readMeta loads and validates a session's meta.json, returning the session
// config and the cluster options for RestoreStreamer.
func readMeta(dir string) (SessionConfig, pfg.Options, error) {
	b, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return SessionConfig{}, pfg.Options{}, err
	}
	var meta CreateSessionRequest
	if err := json.Unmarshal(b, &meta); err != nil {
		return SessionConfig{}, pfg.Options{}, err
	}
	cfg, err := meta.config()
	if err != nil {
		return SessionConfig{}, pfg.Options{}, err
	}
	return cfg, pfg.Options{Method: cfg.Method, Prefix: cfg.Prefix, Workers: cfg.Workers}, nil
}

func ckptName(gen uint64) string { return fmt.Sprintf("ckpt-%020d.pfgc", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%020d.wal", gen) }

// parseGen extracts the generation from a "<prefix><gen><suffix>" file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	g, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// countWriter counts bytes on their way to the checkpoint file, for the
// /statsz checkpoint_bytes figure.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	m, err := c.w.Write(p)
	c.n += int64(m)
	return m, err
}
