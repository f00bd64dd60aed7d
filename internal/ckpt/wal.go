package ckpt

import (
	"encoding/binary"
	"fmt"
	"io"
)

// The write-ahead log records every push admitted between two checkpoints,
// so recovery is checkpoint + replay. One WAL segment covers the interval
// since one checkpoint: the serving layer opens a fresh segment whenever it
// writes a checkpoint and names it by the generation it starts from.
//
// # WAL segment format (version 1)
//
// The frames of the package comment, in order:
//
//	header  head of 16 bytes, no values: magic "PFGW" | u32 version
//	        | u64 startGen
//	push*   head of 8 bytes, u64 generation; the sample's n values
//
// startGen is the engine generation at the moment the segment was opened;
// every frame carries the POST-push generation of its sample (strictly
// increasing, > startGen — a push that triggers a periodic rebuild advances
// the generation twice, so consecutive frames may differ by more than one).
// Replay therefore needs no counting: a frame whose generation the restored
// engine has already reached is skipped, and after each replayed push the
// engine's generation must equal the frame's stamp or replay stops.
//
// A crash can land mid-write, so the reader is torn-tail tolerant by
// design: it returns every frame up to the first short read or CRC
// mismatch and reports the tail as torn rather than failing — an append-only
// file's durable prefix is exactly the frames that check out.

const (
	walMagic     = "PFGW"
	walHeaderLen = 16

	// maxWALSample caps a frame's declared sample arity, mirroring the
	// checkpoint's series-count limit.
	maxWALSample = maxSeries
)

// SyncPolicy selects when a WAL writer fsyncs, trading durability of the
// last few frames against push latency. The zero value is SyncBatch.
type SyncPolicy uint8

const (
	// SyncBatch fsyncs once per Flush — the serving layer flushes after
	// each HTTP push batch, so a crash loses at most the batch in flight.
	// The default.
	SyncBatch SyncPolicy = iota
	// SyncNone never fsyncs; the OS flushes on its own schedule. Fastest;
	// a crash may lose recent frames (recovery still finds a valid prefix).
	SyncNone
	// SyncAlways fsyncs after every appended frame: at most zero admitted
	// pushes lost, at the cost of one fsync per sample.
	SyncAlways
)

// ParseSyncPolicy parses the wire/flag spelling: "batch", "none", "always".
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	case "always":
		return SyncAlways, nil
	}
	return 0, fmt.Errorf("ckpt: unknown fsync policy %q (want batch, none, or always)", s)
}

// String returns the flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncNone:
		return "none"
	case SyncAlways:
		return "always"
	}
	return "batch"
}

// syncer is what a WAL writer needs beyond io.Writer to honor its policy;
// *os.File satisfies it. Writers without it (tests, buffers) degrade to
// no-op syncs.
type syncer interface{ Sync() error }

// WALWriter appends push frames to one segment. Not safe for concurrent
// use; the serving layer calls it under the same per-session push lock that
// serializes engine writes. Errors are sticky: after a write or sync error
// every later call reports it, and the serving layer counts the segment
// lost (recovery replays the durable prefix). Its buffer holds at most one
// push frame and at most one chunk.
type WALWriter struct {
	enc    encoder
	sync   syncer // nil when the underlying writer cannot sync
	policy SyncPolicy
	dirty  bool // frames written since the last sync
}

// NewWALWriter writes the segment header for a segment starting at
// generation startGen and returns the writer. The header is synced
// according to policy so an immediately-following crash still leaves a
// well-formed (empty) segment.
func NewWALWriter(w io.Writer, startGen uint64, policy SyncPolicy) (*WALWriter, error) {
	wr := &WALWriter{enc: encoder{w: w}, policy: policy}
	wr.sync, _ = w.(syncer)
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], startGen)
	wr.enc.frame(hdr[:], nil)
	if policy != SyncNone {
		wr.doSync()
	}
	if wr.enc.err != nil {
		return nil, wr.enc.err
	}
	return wr, nil
}

// Append logs one admitted push: the sample vector stamped with the
// POST-push engine generation, in one Write. Under SyncAlways the frame is
// durable when Append returns; under SyncBatch it is durable after the next
// Flush.
func (wr *WALWriter) Append(gen uint64, sample []float64) error {
	var head [8]byte
	binary.LittleEndian.PutUint64(head[:], gen)
	wr.enc.frame(head[:], sample)
	wr.dirty = true
	if wr.policy == SyncAlways {
		wr.doSync()
	}
	return wr.enc.err
}

// Flush makes appended frames durable under SyncBatch (no-op otherwise, and
// when nothing new was appended). The serving layer calls it once per HTTP
// push batch.
func (wr *WALWriter) Flush() error {
	if wr.policy == SyncBatch && wr.dirty {
		wr.doSync()
	}
	return wr.enc.err
}

// Bytes returns the bytes written so far, header included.
func (wr *WALWriter) Bytes() int64 { return wr.enc.n }

// doSync fsyncs what has been written, unless an earlier error stands.
func (wr *WALWriter) doSync() {
	if wr.enc.err != nil {
		return
	}
	wr.dirty = false
	if wr.sync != nil {
		wr.enc.err = wr.sync.Sync()
	}
}

// WALFrame is one replayable push: the sample and the engine generation it
// produced.
type WALFrame struct {
	Gen    uint64
	Sample []float64
}

// ReadWAL reads one segment, returning its start generation, every frame of
// the durable prefix, and whether a torn (truncated or corrupt) tail was
// dropped. Torn tails are expected after a crash and are NOT an error: the
// frames before the tear are exactly what was durable. An error is returned
// only when the segment is not a version-1 WAL at all (ErrBadMagic,
// ErrVersion) — a header that is itself torn yields zero frames with
// torn=true. Frame generations must be strictly increasing from startGen;
// a violation is treated as a tear.
func ReadWAL(r io.Reader) (startGen uint64, frames []WALFrame, torn bool, err error) {
	dec := decoder{r: r, buf: make([]byte, chunkBytes)}
	var hdr [walHeaderLen]byte
	if _, err := dec.frame(hdr[:], 0, 0); err != nil {
		// An empty, short, CRC-broken, or wrong-length header is a torn
		// empty segment: zero durable frames, recovery proceeds from the
		// checkpoint alone.
		return 0, nil, true, nil
	}
	if string(hdr[0:4]) != walMagic {
		return 0, nil, false, ErrBadMagic
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != FormatVersion {
		return 0, nil, false, fmt.Errorf("%w: got WAL version %d, support %d", ErrVersion, v, FormatVersion)
	}
	startGen = binary.LittleEndian.Uint64(hdr[8:])

	// A clean end at a frame boundary ends the segment; anything else that
	// stops the read — a short frame, a CRC or size mismatch, a generation
	// that does not advance — is a torn tail.
	prev := startGen
	for {
		var head [8]byte
		sample, err := dec.frame(head[:], 0, maxWALSample)
		if err != nil {
			return startGen, frames, err != io.EOF, nil
		}
		gen := binary.LittleEndian.Uint64(head[:])
		if gen <= prev {
			return startGen, frames, true, nil
		}
		frames = append(frames, WALFrame{Gen: gen, Sample: sample})
		prev = gen
	}
}
