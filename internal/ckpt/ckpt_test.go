package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/stream"
	"pfg/internal/ws"
)

// feed generates a deterministic tick stream.
func feed(seed int64, n, count int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, count)
	for k := range out {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64() + 0.25*math.Sin(float64(k)/5+float64(i))
		}
		out[k] = x
	}
	return out
}

// fixFrameCRC recomputes the CRC of the frame starting at byte off, so a
// test can corrupt a payload field and still get past the integrity gate to
// the semantic check behind it.
func fixFrameCRC(data []byte, off int) {
	declared := int(binary.LittleEndian.Uint32(data[off:]))
	payload := data[off+4 : off+4+declared]
	binary.LittleEndian.PutUint32(data[off+4+declared:], crc32.Checksum(payload, castagnoli))
}

// buildEngine pushes `count` deterministic ticks into a fresh engine.
func buildEngine(t testing.TB, n, window, rebuildEvery, count int, seed int64) *stream.Engine {
	t.Helper()
	pool := exec.New(1)
	defer pool.Close()
	e, err := stream.New(n, window, rebuildEvery, ws.New())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range feed(seed, n, count) {
		if err := e.Push(pool, x); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// sameEngine asserts bit-identical snapshot state and counters.
func sameEngine(t *testing.T, tag string, a, b *stream.Engine) {
	t.Helper()
	if a.Len() != b.Len() || a.N() != b.N() || a.Generation() != b.Generation() || a.Exact() != b.Exact() {
		t.Fatalf("%s: counters diverge: len %d/%d gen %d/%d exact %v/%v",
			tag, a.Len(), b.Len(), a.Generation(), b.Generation(), a.Exact(), b.Exact())
	}
	n := a.N()
	ga, sa := make([]float64, n*n), make([]float64, n)
	gb, sb := make([]float64, n*n), make([]float64, n)
	a.CopyState(ga, sa)
	b.CopyState(gb, sb)
	for i := range ga {
		if math.Float64bits(ga[i]) != math.Float64bits(gb[i]) {
			t.Fatalf("%s: band[%d] %v != %v", tag, i, ga[i], gb[i])
		}
	}
	for i := range sa {
		if math.Float64bits(sa[i]) != math.Float64bits(sb[i]) {
			t.Fatalf("%s: sums[%d] %v != %v", tag, i, sa[i], sb[i])
		}
	}
}

var testParams = Params{Inc: IncParams{Enabled: true, DriftThreshold: 0.03, MaxStale: 40}}

func TestCheckpointRoundTrip(t *testing.T) {
	cases := []struct {
		name         string
		n, window    int
		rebuildEvery int
		count        int
	}{
		{"f64-midfill", 5, 12, 4, 7},
		{"f64-rolled", 5, 12, 4, 21},
		{"f64-multipanel", 3, 560, 8, 530},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := buildEngine(t, tc.n, tc.window, tc.rebuildEvery, tc.count, 11)
			var buf bytes.Buffer
			n, err := CheckpointTo(&buf, e, testParams)
			if err != nil {
				t.Fatal(err)
			}
			if n != int64(buf.Len()) {
				t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
			}
			r, p, err := RestoreEngine(bytes.NewReader(buf.Bytes()), ws.New())
			if err != nil {
				t.Fatal(err)
			}
			if p.Window != tc.window || p.RebuildEvery != tc.rebuildEvery {
				t.Fatalf("params %+v do not match the engine", p)
			}
			if p.Inc != testParams.Inc {
				t.Fatalf("incremental params %+v != %+v", p.Inc, testParams.Inc)
			}
			sameEngine(t, tc.name, e, r)

			// The restored engine must evolve identically: keep pushing the
			// same ticks into both (crossing fill/rebuild boundaries).
			pool := exec.New(1)
			defer pool.Close()
			for _, x := range feed(99, tc.n, 2*tc.rebuildEvery+3) {
				if err := e.Push(pool, x); err != nil {
					t.Fatal(err)
				}
				if err := r.Push(pool, x); err != nil {
					t.Fatal(err)
				}
			}
			sameEngine(t, tc.name+"/evolved", e, r)
		})
	}
}

// TestCheckpointAllocs pins the encoder's O(1) allocation contract: the
// state streams through one fixed chunk buffer, so the count follows the
// number of frames, never their size (the n=512, W=4096 checkpoint is
// 21 MB).
func TestCheckpointAllocs(t *testing.T) {
	for _, c := range []struct {
		n, window int
		want      float64
	}{
		{8, 16, 10},
		{512, 4096, 12},
	} {
		e := buildEngine(t, c.n, c.window, 64, 24, 7)
		got := testing.AllocsPerRun(4, func() {
			if _, err := CheckpointTo(io.Discard, e, testParams); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("n=%d W=%d: %v allocs per checkpoint, want %v", c.n, c.window, got, c.want)
		}
	}
}

// TestRestoreAllocBound pins the decoder's allocation bound on the n=512,
// W=4096 checkpoint: a whole restore allocates under 2.5× the checkpoint's
// bytes (the doubling frames, which the engine adopts as its buffers), and the
// same file cut after 1 MiB of ring payload fails with ErrCorrupt having
// allocated under 4× the bytes it holds plus a chunk per frame.
func TestRestoreAllocBound(t *testing.T) {
	const n, window = 512, 4096
	var buf bytes.Buffer
	if _, err := CheckpointTo(&buf, buildEngine(t, n, window, 64, 24, 7), testParams); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	restoreAlloc := func(in []byte) (uint64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, _, err := RestoreEngine(bytes.NewReader(in), ws.New())
		runtime.ReadMemStats(&after)
		if e != nil {
			e.Release()
		}
		return after.TotalAlloc - before.TotalAlloc, err
	}

	got, err := restoreAlloc(data)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("whole restore: %d bytes allocated for %d bytes of checkpoint", got, len(data))
	if ratio := float64(got) / float64(len(data)); ratio > 2.5 {
		t.Errorf("restore allocated %d bytes for a %d-byte checkpoint (%.2f×), want ≤ 2.5×", got, len(data), ratio)
	}

	// Header frame, sums frame, then the ring frame's length word and
	// 1 MiB of its payload.
	cut := data[:(4+headerLen+4)+(4+8*n+4)+4+1<<20]
	got, err = restoreAlloc(cut)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated restore: err %v, want ErrCorrupt", err)
	}
	t.Logf("truncated restore: %d bytes allocated for %d bytes of input", got, len(cut))
	if limit := uint64(4*len(cut) + 3*chunkBytes); got > limit {
		t.Errorf("truncated restore allocated %d bytes for %d bytes of input, want ≤ %d", got, len(cut), limit)
	}
}

func TestCheckpointEmptySession(t *testing.T) {
	p := Params{Window: 64, RebuildEvery: 16, Inc: testParams.Inc}
	var buf bytes.Buffer
	if _, err := CheckpointTo(&buf, nil, p); err != nil {
		t.Fatal(err)
	}
	e, got, err := RestoreEngine(bytes.NewReader(buf.Bytes()), ws.New())
	if err != nil {
		t.Fatal(err)
	}
	if e != nil {
		t.Fatal("engine materialized from an engine-less checkpoint")
	}
	if got != p {
		t.Fatalf("params %+v != %+v", got, p)
	}
}

func TestCheckpointTypedErrors(t *testing.T) {
	e := buildEngine(t, 4, 8, 4, 11, 5)
	var buf bytes.Buffer
	if _, err := CheckpointTo(&buf, e, Params{}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	check := func(name string, data []byte, want error) {
		t.Helper()
		_, _, err := RestoreEngine(bytes.NewReader(data), ws.New())
		if err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if !errors.Is(err, want) {
			t.Fatalf("%s: error %v, want %v", name, err, want)
		}
	}

	badMagic := append([]byte(nil), valid...)
	copy(badMagic[4:], "NOPE")
	fixFrameCRC(badMagic, 0)
	check("bad magic", badMagic, ErrBadMagic)

	badVer := append([]byte(nil), valid...)
	badVer[8] = 99 // version field: header payload offset 4
	// Recompute the header CRC so the version gate itself (not the
	// integrity gate) is what rejects.
	fixFrameCRC(badVer, 0)
	check("bad version", badVer, ErrVersion)

	// The precision field (header payload offset 12) must be 0, float64. Any
	// other value is refused before a data frame is read, so the header
	// alone, and an engine-less checkpoint, already fail.
	var engineLess bytes.Buffer
	if _, err := CheckpointTo(&engineLess, nil, Params{Window: 8}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"full", valid},
		{"header only", valid[:4+headerLen+4]},
		{"engine-less", engineLess.Bytes()},
	} {
		badPrec := append([]byte(nil), tc.data...)
		badPrec[16] = 1
		fixFrameCRC(badPrec, 0)
		check("precision 1, "+tc.name, badPrec, ErrFormat)
	}

	check("truncated", valid[:len(valid)-5], ErrCorrupt)
	check("empty", nil, ErrCorrupt)

	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40
	_, _, err := RestoreEngine(bytes.NewReader(flipped), ws.New())
	if err == nil {
		t.Fatal("bit flip accepted")
	}
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
		t.Fatalf("bit flip: error %v, want ErrCorrupt or ErrFormat", err)
	}

	badShape := append([]byte(nil), valid...)
	badShape[20] = 0xFF // series count low byte (payload offset 16) → frame-size mismatch
	fixFrameCRC(badShape, 0)
	check("shape mismatch", badShape, ErrFormat)

	hugeShape := append([]byte(nil), valid...)
	for i := 0; i < 8; i++ {
		hugeShape[20+i] = 0xFF // astronomically large series count
	}
	fixFrameCRC(hugeShape, 0)
	check("shape over format limit", hugeShape, ErrFormat)
}

func TestWALRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWALWriter(&buf, 7, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	samples := feed(3, 5, 4)
	gens := []uint64{8, 9, 11, 12} // 9→11: a push that triggered a rebuild
	for i, g := range gens {
		if err := w.Append(g, samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.frames != 4 || w.Bytes() != int64(buf.Len()) {
		t.Fatalf("writer reports %d frames %d bytes, buffer has %d", w.frames, w.Bytes(), buf.Len())
	}

	start, frames, torn, err := ReadWAL(bytes.NewReader(buf.Bytes()))
	if err != nil || torn {
		t.Fatalf("read: err %v torn %v", err, torn)
	}
	if start != 7 || len(frames) != 4 {
		t.Fatalf("start %d frames %d", start, len(frames))
	}
	for i, fr := range frames {
		if fr.Gen != gens[i] {
			t.Fatalf("frame %d gen %d want %d", i, fr.Gen, gens[i])
		}
		for j, v := range fr.Sample {
			if math.Float64bits(v) != math.Float64bits(samples[i][j]) {
				t.Fatalf("frame %d sample[%d] %v != %v", i, j, v, samples[i][j])
			}
		}
	}
}

// TestWALAppendAllocs: logging a push allocates once per frame, whatever
// the sample's length.
func TestWALAppendAllocs(t *testing.T) {
	w, err := NewWALWriter(io.Discard, 0, SyncNone)
	if err != nil {
		t.Fatal(err)
	}
	sample := feed(1, 512, 1)[0]
	var gen uint64
	if got := testing.AllocsPerRun(64, func() {
		gen++
		if err := w.Append(gen, sample); err != nil {
			t.Fatal(err)
		}
	}); got != 1 {
		t.Errorf("Append: %v allocs per frame, want 1", got)
	}
}

func TestWALRejectsForeign(t *testing.T) {
	// A checkpoint is not a WAL (different magic, different header length):
	// either typed rejection or a torn empty read, never frames.
	e := buildEngine(t, 4, 8, 4, 5, 1)
	var buf bytes.Buffer
	if _, err := CheckpointTo(&buf, e, Params{}); err != nil {
		t.Fatal(err)
	}
	_, frames, torn, err := ReadWAL(bytes.NewReader(buf.Bytes()))
	if len(frames) != 0 {
		t.Fatalf("foreign file yielded %d frames", len(frames))
	}
	if err == nil && !torn {
		t.Fatal("foreign file read as a clean empty WAL")
	}

	// A real WAL header with a wrong magic/version is rejected by type.
	var wb bytes.Buffer
	if _, err := NewWALWriter(&wb, 0, SyncNone); err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), wb.Bytes()...)
	copy(bad[4:], "NOPE")
	fixFrameCRC(bad, 0)
	if _, _, _, err := ReadWAL(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	badv := append([]byte(nil), wb.Bytes()...)
	badv[8] = 9
	fixFrameCRC(badv, 0)
	if _, _, _, err := ReadWAL(bytes.NewReader(badv)); !errors.Is(err, ErrVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestSyncPolicyParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"", SyncBatch}, {"batch", SyncBatch}, {"none", SyncNone}, {"always", SyncAlways}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}
