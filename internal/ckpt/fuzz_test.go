package ckpt

import (
	"bytes"
	"errors"
	"testing"

	"pfg/internal/stream"
	"pfg/internal/ws"
)

// fuzzSeeds returns valid wire fixtures so the fuzzer starts from inputs
// that pass every gate and mutates inward: a rolled and a mid-fill window, a
// multi-panel mid-fill (gcur frame present), and an engine-less config
// checkpoint.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	add := func(e *stream.Engine, p Params) {
		var buf bytes.Buffer
		if _, err := CheckpointTo(&buf, e, p); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}
	add(buildEngine(t, 4, 8, 4, 11, 1), testParams)
	add(buildEngine(t, 3, 8, 4, 6, 2), Params{})
	add(buildEngine(t, 2, 560, 8, 530, 3), Params{})
	add(nil, Params{Window: 32, RebuildEvery: 8, Inc: testParams.Inc})
	return seeds
}

// FuzzCheckpointDecode feeds raw bits to the checkpoint decoder. The
// contract: never panic, never allocate beyond what the input's actual
// bytes justify (the chunk-grown decoder enforces this structurally; the
// fuzzer exercises the shape gates in front of it), reject everything
// invalid with one of the typed errors, and round-trip whatever it accepts.
func FuzzCheckpointDecode(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte(ckptMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		e, p, err := RestoreEngine(bytes.NewReader(data), ws.New())
		if err != nil {
			if e != nil {
				t.Fatal("engine returned alongside an error")
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) &&
				!errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFormat) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		// Accepted input round-trips. Re-encoding it need not reproduce
		// data byte for byte: the reserved header bytes, and the knobs of a
		// disabled incremental layer, are not kept. But decoding that
		// re-encoding and encoding again must give the same bytes, the same
		// engine and the same Params.
		var first, second bytes.Buffer
		if _, err := CheckpointTo(&first, e, p); err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		e2, p2, err := RestoreEngine(bytes.NewReader(first.Bytes()), ws.New())
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if _, err := CheckpointTo(&second, e2, p2); err != nil {
			t.Fatalf("re-decoded state does not re-encode: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encodings differ: %d and %d bytes", first.Len(), second.Len())
		}
		if p2 != p {
			t.Fatalf("params %+v decode back as %+v", p, p2)
		}
		if (e == nil) != (e2 == nil) {
			t.Fatalf("engine present %v, after the round trip %v", e != nil, e2 != nil)
		}
		if e != nil {
			sameEngine(t, "round trip", e, e2)
		}
	})
}

// FuzzWALReplay feeds raw bits to the WAL reader. The contract: never
// panic, treat every torn or garbled tail as a shorter durable prefix,
// reject non-WAL files with typed errors, keep frame generations strictly
// increasing in whatever prefix it does return, and round-trip that prefix:
// writing its start generation and frames again reproduces the input's
// leading bytes exactly, and the whole input when no tail was torn.
func FuzzWALReplay(f *testing.F) {
	walSeed := func(startGen uint64, gens []uint64, n int) []byte {
		var buf bytes.Buffer
		w, err := NewWALWriter(&buf, startGen, SyncNone)
		if err != nil {
			f.Fatal(err)
		}
		for i, g := range gens {
			if err := w.Append(g, feed(int64(i), n, 1)[0]); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	f.Add(walSeed(0, []uint64{1, 2, 3}, 4))
	f.Add(walSeed(9, []uint64{10, 12, 13, 15}, 2))
	f.Add(walSeed(7, nil, 0))
	f.Add(walSeed(3, []uint64{4, 6}, chunkBytes/8+1)) // samples longer than one chunk
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		start, frames, torn, err := ReadWAL(bytes.NewReader(data))
		if err != nil {
			if len(frames) != 0 || torn {
				t.Fatal("frames or torn flag returned alongside an error")
			}
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) {
				t.Fatalf("untyped WAL error: %v", err)
			}
			return
		}
		prev := start
		for i, fr := range frames {
			if fr.Gen <= prev {
				t.Fatalf("frame %d gen %d not strictly after %d", i, fr.Gen, prev)
			}
			prev = fr.Gen
		}

		var again bytes.Buffer
		w, err := NewWALWriter(&again, start, SyncNone)
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if err := w.Append(fr.Gen, fr.Sample); err != nil {
				t.Fatal(err)
			}
		}
		if torn && len(frames) == 0 && !bytes.HasPrefix(data, again.Bytes()) {
			// The header itself is torn (ReadWAL reports start 0): nothing
			// of the input was durable, so there is no prefix to compare.
			if start != 0 {
				t.Fatalf("torn header reported start generation %d", start)
			}
			return
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatalf("re-encoded %d frames (%d bytes) are not a prefix of the %d-byte input", len(frames), again.Len(), len(data))
		}
		if !torn && again.Len() != len(data) {
			t.Fatalf("untorn input of %d bytes re-encodes to %d", len(data), again.Len())
		}
	})
}
