// Package ckpt is the durability wire layer for the streaming engine: a
// versioned, CRC32C-framed binary checkpoint of full Engine state plus a
// segment-oriented write-ahead log of admitted pushes (wal.go). Together
// they make a session restorable to the exact bits an uncrashed process
// would hold: restore the newest valid checkpoint, replay the WAL suffix,
// and the very next Push and Snapshot are byte-identical to a process that
// never died.
//
// # Frames
//
// Both files are sequences of one frame shape, every integer
// little-endian:
//
//	frame   := u32 payloadLen | payload | u32 crc32c(payload)
//	payload := head | f64*
//
// The head is a fixed number of raw bytes that the frame's position
// determines (possibly none), followed by a count of float64 values whose
// range the position also determines. CRC32C is the Castagnoli polynomial
// (hash/crc32), computed over the payload only. One encoder writes every
// frame and one decoder reads every frame.
//
// # Checkpoint format (version 1)
//
// The frames, in order:
//
//	header  head of 104 bytes, no values:
//	        magic "PFGC" | u32 version | u32 flags | u32 precision
//	        | u64 n, window, count, head, slides, generation
//	        | i64 rebuildEvery
//	        | f64 incDriftThreshold | i64 incMaxStale
//	        | 16 reserved bytes (written as zero, ignored on read)
//	sums    n values             (present iff flags&flagEngine)
//	ring    window×n values
//	band    n×n values
//	gcur    n×n values           (present iff flags&flagGCur: a multi-panel
//	                              window still filling)
//
// The precision field must be 0 (float64 moments); any other value is
// rejected with ErrFormat before a data frame is read.
//
// Flags: bit 0 = an engine is present (a session checkpointed before its
// first admitted push has none — the header alone carries its
// configuration); bit 1 = the gcur frame follows; bit 2 = the session runs
// the incremental clustering layer (whose knobs ride in the header; its
// reference clustering is a serving-layer cache, deliberately NOT persisted
// — the first post-restore snapshot re-clusters exactly).
//
// Everything is flat arrays written in one pass — no reflection, no
// encoding/gob — so encoding an n=512, window=4096 engine streams 21 MB
// through one chunk buffer, its only allocation (TestCheckpointAllocs).
//
// The decoder trusts nothing: magic and version gate first (ErrBadMagic,
// ErrVersion), every shape is bounds-checked against format limits before
// any allocation sized from it (ErrFormat), payload bytes accrue into
// buffers that grow by doubling only as bytes arrive, so a truncated file
// can never force an allocation larger than one chunk or twice the bytes
// actually present (see decoder), CRCs gate every frame (ErrCorrupt),
// and the reconstructed state passes the engine's full invariant validation
// (stream.NewFromState) before an Engine is handed back. The engine adopts
// the decoded frames as its buffers, so a restore holds the state once.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"pfg/internal/stream"
	"pfg/internal/ws"
)

// FormatVersion is the checkpoint and WAL wire format version this package
// writes. Readers accept exactly this version: durability formats evolve by
// explicit migration, not silent reinterpretation.
const FormatVersion = 1

// Typed decode errors, distinguishable with errors.Is.
var (
	// ErrBadMagic: the input does not begin with a checkpoint/WAL magic —
	// not a pfg durability file at all.
	ErrBadMagic = errors.New("ckpt: bad magic")
	// ErrVersion: a well-formed header declares a format version this
	// package does not speak.
	ErrVersion = errors.New("ckpt: unsupported format version")
	// ErrCorrupt: a frame failed its CRC or the input ended mid-frame.
	ErrCorrupt = errors.New("ckpt: corrupt or truncated data")
	// ErrFormat: frames are intact but declare an impossible shape
	// (out-of-range dimensions, mismatched frame sizes, state that fails
	// the engine's invariants).
	ErrFormat = errors.New("ckpt: malformed state")
)

// Format limits: shapes beyond these are rejected before allocation. They
// comfortably exceed the serving layer's per-session resource ceilings
// (2× maxRingFloats) while keeping the worst-case decode allocation for a
// crafted header bounded.
const (
	maxSeries      = 1 << 20 // series count n
	maxWindowLen   = 1 << 30 // window length in samples
	maxFrameFloats = 1 << 27 // values in any one data frame (ring, band)
)

const (
	ckptMagic = "PFGC"

	flagEngine = 1 << 0
	flagGCur   = 1 << 1
	flagInc    = 1 << 2

	headerLen  = 104
	chunkBytes = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// IncParams are the incremental-layer knobs carried in a checkpoint header,
// mirroring pfg.IncrementalOptions field for field (plain types here to
// keep the dependency arrow pointing downward). Only configuration is
// persisted: the layer's reference clustering is a cache rebuilt by the
// first post-restore snapshot.
type IncParams struct {
	Enabled        bool
	DriftThreshold float64
	MaxStale       int
}

// Params is the session configuration a checkpoint carries alongside the
// engine state: everything a Streamer needs to resume that is not derivable
// from the engine itself (and, for a pre-first-push session, everything).
type Params struct {
	Window       int
	RebuildEvery int
	Inc          IncParams
}

// CheckpointTo writes a version-1 checkpoint of e to w in one pass,
// returning the bytes written. A nil e checkpoints a session that has not
// admitted its first push: the header alone carries p. With e non-nil the
// engine's own shape (window, rebuild cadence) overrides p's — the engine is
// the source of truth — and only p.Inc is taken from p.
//
// The engine's state is read through the same borrowed-view contract as
// CopyState: the caller must hold the write-excluding lock (pfg.Streamer
// takes its read lock, making a checkpoint atomic with a generation).
func CheckpointTo(w io.Writer, e *stream.Engine, p Params) (int64, error) {
	var st stream.State
	if e != nil {
		st = e.State()
		p.Window = st.Window
		p.RebuildEvery = st.RebuildEvery
	}
	enc := encoder{w: w, buf: make([]byte, 0, chunkBytes)}

	var hdr [headerLen]byte
	copy(hdr[0:], ckptMagic)
	le := binary.LittleEndian
	le.PutUint32(hdr[4:], FormatVersion)
	var flags uint32
	if e != nil {
		flags |= flagEngine
		if st.GCur != nil {
			flags |= flagGCur
		}
	}
	if p.Inc.Enabled {
		flags |= flagInc
	}
	le.PutUint32(hdr[8:], flags)
	// hdr[12:16], the precision field, stays 0: float64 moments.
	le.PutUint64(hdr[16:], uint64(st.N))
	le.PutUint64(hdr[24:], uint64(p.Window))
	le.PutUint64(hdr[32:], uint64(st.Count))
	le.PutUint64(hdr[40:], uint64(st.Head))
	le.PutUint64(hdr[48:], uint64(st.Slides))
	le.PutUint64(hdr[56:], st.Gen)
	le.PutUint64(hdr[64:], uint64(p.RebuildEvery))
	le.PutUint64(hdr[72:], math.Float64bits(p.Inc.DriftThreshold))
	le.PutUint64(hdr[80:], uint64(p.Inc.MaxStale))
	enc.frame(hdr[:], nil)

	if e != nil {
		enc.frame(nil, st.Sums)
		enc.frame(nil, st.Ring)
		enc.frame(nil, st.G)
		if st.GCur != nil {
			enc.frame(nil, st.GCur)
		}
	}
	return enc.n, enc.err
}

// RestoreEngine decodes a version-1 checkpoint from r, reconstructing the
// engine and the session parameters. The engine adopts the decoded frames
// as its long-lived buffers; wspace, which the caller keeps alive alongside
// the engine as a live session keeps its streamer's pinned workspace,
// receives them when the engine is released. A checkpoint of a
// pre-first-push session returns a nil engine with valid Params. The input
// is fully untrusted: see the package comment for the validation ladder;
// errors are ErrBadMagic, ErrVersion, ErrCorrupt, or ErrFormat.
func RestoreEngine(r io.Reader, wspace *ws.Workspace) (*stream.Engine, Params, error) {
	dec := decoder{r: r, buf: make([]byte, chunkBytes)}
	// A checkpoint cannot end cleanly before any frame it declares.
	read := func(head []byte, n int) ([]float64, error) {
		vals, err := dec.frame(head, n, n)
		if err == io.EOF {
			err = fmt.Errorf("%w: %v", ErrCorrupt, io.ErrUnexpectedEOF)
		}
		return vals, err
	}
	var hdr [headerLen]byte
	if _, err := read(hdr[:], 0); err != nil {
		return nil, Params{}, err
	}
	if string(hdr[0:4]) != ckptMagic {
		return nil, Params{}, ErrBadMagic
	}
	le := binary.LittleEndian
	if v := le.Uint32(hdr[4:]); v != FormatVersion {
		return nil, Params{}, fmt.Errorf("%w: got version %d, support %d", ErrVersion, v, FormatVersion)
	}
	flags := le.Uint32(hdr[8:])
	if flags&^uint32(flagEngine|flagGCur|flagInc) != 0 {
		return nil, Params{}, fmt.Errorf("%w: unknown flags %#x", ErrFormat, flags)
	}
	if prec := le.Uint32(hdr[12:]); prec != 0 {
		return nil, Params{}, fmt.Errorf("%w: precision %d, want 0 (float64)", ErrFormat, prec)
	}

	n, err := boundedInt(le.Uint64(hdr[16:]), maxSeries, "series count")
	if err != nil {
		return nil, Params{}, err
	}
	window, err := boundedInt(le.Uint64(hdr[24:]), maxWindowLen, "window")
	if err != nil {
		return nil, Params{}, err
	}
	count, err := boundedInt(le.Uint64(hdr[32:]), maxWindowLen, "count")
	if err != nil {
		return nil, Params{}, err
	}
	head, err := boundedInt(le.Uint64(hdr[40:]), maxWindowLen, "head")
	if err != nil {
		return nil, Params{}, err
	}
	slides, err := boundedInt(le.Uint64(hdr[48:]), math.MaxInt64, "slides")
	if err != nil {
		return nil, Params{}, err
	}
	gen := le.Uint64(hdr[56:])
	rebuildEvery := int(int64(le.Uint64(hdr[64:])))

	p := Params{Window: window, RebuildEvery: rebuildEvery}
	if flags&flagInc != 0 {
		p.Inc = IncParams{
			Enabled:        true,
			DriftThreshold: math.Float64frombits(le.Uint64(hdr[72:])),
			MaxStale:       int(int64(le.Uint64(hdr[80:]))),
		}
		if d := p.Inc.DriftThreshold; math.IsNaN(d) || math.IsInf(d, 0) {
			return nil, Params{}, fmt.Errorf("%w: non-finite incremental drift threshold", ErrFormat)
		}
	}
	if window < 2 {
		return nil, Params{}, fmt.Errorf("%w: window %d < 2", ErrFormat, window)
	}

	if flags&flagEngine == 0 {
		if flags&flagGCur != 0 {
			return nil, Params{}, fmt.Errorf("%w: gcur frame without an engine", ErrFormat)
		}
		if n != 0 || count != 0 || head != 0 || slides != 0 || gen != 0 {
			return nil, Params{}, fmt.Errorf("%w: engine counters set without an engine", ErrFormat)
		}
		return nil, p, nil
	}

	// Shape gates before any shape-sized allocation.
	if n < 1 {
		return nil, Params{}, fmt.Errorf("%w: engine with %d series", ErrFormat, n)
	}
	ringFloats := uint64(window) * uint64(n)
	bandFloats := uint64(n) * uint64(n)
	if ringFloats > maxFrameFloats || bandFloats > maxFrameFloats {
		return nil, Params{}, fmt.Errorf("%w: state of %d×%d exceeds format limits", ErrFormat, window, n)
	}

	st := stream.State{
		N: n, Window: window, RebuildEvery: rebuildEvery,
		Count: count, Head: head, Slides: slides, Gen: gen,
	}
	if st.Sums, err = read(nil, n); err != nil {
		return nil, Params{}, err
	}
	if st.Ring, err = read(nil, int(ringFloats)); err != nil {
		return nil, Params{}, err
	}
	if st.G, err = read(nil, int(bandFloats)); err != nil {
		return nil, Params{}, err
	}
	if flags&flagGCur != 0 {
		if st.GCur, err = read(nil, int(bandFloats)); err != nil {
			return nil, Params{}, err
		}
	}
	eng, err := stream.NewFromState(st, wspace)
	if err != nil {
		return nil, Params{}, fmt.Errorf("%w: %v", ErrFormat, err)
	}
	return eng, p, nil
}

// boundedInt converts a header-declared u64 to int, rejecting values past
// the given format limit before anything is sized from them.
func boundedInt(v uint64, limit uint64, what string) (int, error) {
	if v > limit {
		return 0, fmt.Errorf("%w: %s %d exceeds format limit %d", ErrFormat, what, v, limit)
	}
	return int(v), nil
}

// encoder writes frames through one reused buffer, counting the bytes
// written. Errors are sticky: after a failed Write every later frame is
// dropped and err reports the failure.
type encoder struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

// frame writes one frame whose payload is head followed by vals. The length
// word, the payload and the CRC are staged in buf, which grows to hold the
// whole frame up to one chunk: a frame that fits one chunk is one Write,
// and a larger one is written a chunk at a time.
func (e *encoder) frame(head []byte, vals []float64) {
	size := len(head) + 8*len(vals)
	if need := min(4+size+4, chunkBytes); cap(e.buf) < need {
		e.buf = make([]byte, 0, need)
	}
	b := binary.LittleEndian.AppendUint32(e.buf[:0], uint32(size))
	b = append(b, head...)
	crc := crc32.Update(0, castagnoli, b[4:])
	for e.err == nil {
		k := min(len(vals), (cap(b)-len(b))/8)
		for _, v := range vals[:k] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		crc = crc32.Update(crc, castagnoli, b[len(b)-8*k:])
		vals = vals[k:]
		if len(vals) == 0 && cap(b)-len(b) >= 4 {
			e.write(binary.LittleEndian.AppendUint32(b, crc))
			return
		}
		e.write(b)
		b = b[:0]
	}
}

func (e *encoder) write(p []byte) {
	m, err := e.w.Write(p)
	e.n += int64(m)
	e.err = err
}

// decoder reads frames through one reused chunk buffer.
type decoder struct {
	r   io.Reader
	buf []byte // chunkBytes long
}

// frame reads one frame whose payload is len(head) raw bytes followed by lo
// to hi float64 values, copying the head into head and returning the
// values. The values accrue in a slice that starts at one chunk (or the
// declared count, if smaller) and grows by doubling, capped at the declared
// count, only after the payload bytes that need the room have arrived. So
// each allocation is at most one chunk or 2× the frame bytes read so far,
// whichever is larger; a frame's allocations sum to under 4× its bytes read
// plus one chunk, however the input is truncated or crafted, and a whole
// frame costs O(log size) allocations.
//
// It returns io.EOF only when the input ends before the frame's first byte.
// An input that ends anywhere else, or a CRC mismatch, is ErrCorrupt; a
// payload size outside the declared range is ErrFormat.
func (d *decoder) frame(head []byte, lo, hi int) ([]float64, error) {
	word := d.buf[:4]
	if _, err := io.ReadFull(d.r, word); err != nil {
		if err == io.EOF {
			return nil, err
		}
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	size := int64(binary.LittleEndian.Uint32(word))
	body := size - int64(len(head))
	if body < 8*int64(lo) || body > 8*int64(hi) || body%8 != 0 {
		return nil, fmt.Errorf("%w: frame declares %d payload bytes, want %d plus 8×[%d, %d]", ErrFormat, size, len(head), lo, hi)
	}
	h := d.buf[:len(head)]
	if err := d.readFull(h); err != nil {
		return nil, err
	}
	crc := crc32.Update(0, castagnoli, h)
	copy(head, h)

	want := int(body / 8)
	vals := make([]float64, 0, min(want, chunkBytes/8))
	for rem := int(body); rem > 0; {
		k := min(rem, chunkBytes)
		chunk := d.buf[:k]
		if err := d.readFull(chunk); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, castagnoli, chunk)
		if len(vals)+k/8 > cap(vals) {
			vals = append(make([]float64, 0, min(2*cap(vals), want)), vals...)
		}
		for off := 0; off < k; off += 8 {
			vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(chunk[off:])))
		}
		rem -= k
	}
	if err := d.readFull(word); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(word) != crc {
		return nil, fmt.Errorf("%w: frame CRC mismatch", ErrCorrupt)
	}
	return vals, nil
}

func (d *decoder) readFull(p []byte) error {
	if _, err := io.ReadFull(d.r, p); err != nil {
		return fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return nil
}
