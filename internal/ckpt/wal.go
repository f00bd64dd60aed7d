package ckpt

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// The write-ahead log records every push admitted between two checkpoints,
// so recovery is checkpoint + replay. One WAL segment covers the interval
// since one checkpoint: the serving layer opens a fresh segment whenever it
// writes a checkpoint and names it by the generation it starts from.
//
// # WAL segment format (version 1)
//
// The same CRC framing as checkpoints (u32 len | payload | u32 crc32c),
// little-endian throughout:
//
//	header  16 bytes: magic "PFGW" | u32 version | u64 startGen
//	frame*  u64 generation | n×f64 sample
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
// serializes engine writes. Errors are sticky: after a write error every
// later call reports it, and the serving layer counts the segment lost
// (recovery replays the durable prefix).
type WALWriter struct {
	w      io.Writer
	sync   syncer
	policy SyncPolicy
	buf    []byte
	frames uint64
	bytes  int64
	dirty  bool // frames written since the last sync
	err    error
}

// NewWALWriter writes the segment header for a segment starting at
// generation startGen and returns the writer. The header is synced
// according to policy so an immediately-following crash still leaves a
// well-formed (empty) segment.
func NewWALWriter(w io.Writer, startGen uint64, policy SyncPolicy) (*WALWriter, error) {
	wr := &WALWriter{w: w, policy: policy, buf: make([]byte, walHeaderLen+12)}
	if s, ok := w.(syncer); ok {
		wr.sync = s
	}
	hdr := wr.buf[:walHeaderLen]
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[4:], FormatVersion)
	binary.LittleEndian.PutUint64(hdr[8:], startGen)
	wr.writeFrame(hdr)
	if wr.err == nil && policy != SyncNone {
		wr.err = wr.doSync()
	}
	if wr.err != nil {
		return nil, wr.err
	}
	return wr, nil
}

// Append logs one admitted push: the sample vector stamped with the
// POST-push engine generation. Under SyncAlways the frame is durable when
// Append returns; under SyncBatch it is durable after the next Flush.
func (wr *WALWriter) Append(gen uint64, sample []float64) error {
	if wr.err != nil {
		return wr.err
	}
	need := 8 + len(sample)*8
	if cap(wr.buf) < need {
		wr.buf = make([]byte, need)
	}
	payload := wr.buf[:need]
	binary.LittleEndian.PutUint64(payload, gen)
	for i, v := range sample {
		binary.LittleEndian.PutUint64(payload[8+i*8:], math.Float64bits(v))
	}
	wr.writeFrame(payload)
	if wr.err == nil {
		wr.frames++
		wr.dirty = true
		if wr.policy == SyncAlways {
			wr.err = wr.doSync()
		}
	}
	return wr.err
}

// Flush makes appended frames durable under SyncBatch (no-op otherwise, and
// when nothing new was appended). The serving layer calls it once per HTTP
// push batch.
func (wr *WALWriter) Flush() error {
	if wr.err != nil {
		return wr.err
	}
	if wr.policy == SyncBatch && wr.dirty {
		wr.err = wr.doSync()
	}
	return wr.err
}

// Bytes returns the bytes written so far, header included.
func (wr *WALWriter) Bytes() int64 { return wr.bytes }

// Err returns the sticky error, if any.
func (wr *WALWriter) Err() error { return wr.err }

func (wr *WALWriter) writeFrame(payload []byte) {
	if wr.err != nil {
		return
	}
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(payload)))
	wr.write(b[:])
	wr.write(payload)
	binary.LittleEndian.PutUint32(b[:], crc32.Checksum(payload, castagnoli))
	wr.write(b[:])
}

func (wr *WALWriter) write(p []byte) {
	if wr.err != nil {
		return
	}
	m, err := wr.w.Write(p)
	wr.bytes += int64(m)
	wr.err = err
}

func (wr *WALWriter) doSync() error {
	wr.dirty = false
	if wr.sync == nil {
		return nil
	}
	return wr.sync.Sync()
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
	dec := &decoder{r: r, buf: make([]byte, chunkBytes)}
	var hdr [walHeaderLen]byte
	if err := dec.readRawFrame(hdr[:]); err != nil {
		// A short, CRC-broken, or wrong-length header is a torn empty
		// segment: zero durable frames, recovery proceeds from the
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

	prev := startGen
	for {
		frame, ok := readWALFrame(dec, prev)
		if !ok.valid {
			return startGen, frames, ok.torn, nil
		}
		frames = append(frames, frame)
		prev = frame.Gen
	}
}

// walRead reports how a frame read ended: a clean end-of-segment (valid
// false, torn false), a torn tail (valid false, torn true), or a good frame.
type walRead struct{ valid, torn bool }

func readWALFrame(dec *decoder, prevGen uint64) (WALFrame, walRead) {
	var lenB [4]byte
	// A clean EOF at a frame boundary ends the segment; any partial read
	// from here on is a torn tail.
	if _, err := io.ReadFull(dec.r, lenB[:1]); err == io.EOF {
		return WALFrame{}, walRead{}
	} else if err != nil {
		return WALFrame{}, walRead{torn: true}
	}
	if _, err := io.ReadFull(dec.r, lenB[1:]); err != nil {
		return WALFrame{}, walRead{torn: true}
	}
	declared := binary.LittleEndian.Uint32(lenB[:])
	if declared < 8 || (declared-8)%8 != 0 || (declared-8)/8 > maxWALSample {
		return WALFrame{}, walRead{torn: true}
	}
	crc := uint32(0)
	payload := make([]byte, 0, min(int(declared), chunkBytes))
	rem := int(declared)
	for rem > 0 {
		k := min(rem, chunkBytes)
		chunk := dec.buf[:k]
		if _, err := io.ReadFull(dec.r, chunk); err != nil {
			return WALFrame{}, walRead{torn: true}
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		payload = append(payload, chunk...)
		rem -= k
	}
	var crcB [4]byte
	if _, err := io.ReadFull(dec.r, crcB[:]); err != nil {
		return WALFrame{}, walRead{torn: true}
	}
	if binary.LittleEndian.Uint32(crcB[:]) != crc {
		return WALFrame{}, walRead{torn: true}
	}
	gen := binary.LittleEndian.Uint64(payload)
	if gen <= prevGen {
		return WALFrame{}, walRead{torn: true}
	}
	sample := make([]float64, (declared-8)/8)
	for i := range sample {
		sample[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8+i*8:]))
	}
	return WALFrame{Gen: gen, Sample: sample}, walRead{valid: true}
}
