package ckpt

// Golden wire-format corpus: deterministic engines whose exact checkpoint
// bytes, and one WAL segment, are pinned under testdata/ckpt/. Both formats
// are a compatibility surface — float64 files written by one build must
// restore under every later build of the same FormatVersion — so any
// refactor that moves a single wire byte shows up here as a golden diff
// instead of a silent format fork. The decode direction doubles as the
// backward-compatibility gate: every committed f64 fixture must still
// restore bit-identically, the committed WAL segment must replay to the
// same frames, and every f32 fixture (header precision 1) must be refused.
//
// Regenerate intentionally with:
//
//	go test ./internal/ckpt/ -run 'TestGolden(Checkpoint|WAL)' -update

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/ws"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/ckpt/ instead of comparing")

type goldenCase struct {
	name         string
	n, window    int
	rebuildEvery int
	count        int
	rebuild      bool // force an exact rebuild before checkpointing
	params       Params
	// legacy: testdata/ckpt/legacy_<name>.pfgc holds this case's bytes as
	// written when header payload bytes 88–103 (now reserved, ignored on
	// read) still carried two incremental knobs, set to 2 and 3.
	legacy bool
}

func goldenCkptCases() []goldenCase {
	return []goldenCase{
		{name: "f64_midfill", n: 5, window: 12, rebuildEvery: 4, count: 7, params: testParams, legacy: true},
		{name: "f64_postrebuild", n: 5, window: 12, rebuildEvery: 4, count: 21, rebuild: true},
	}
}

func goldenBytes(t *testing.T, c goldenCase) []byte {
	t.Helper()
	e := buildEngine(t, c.n, c.window, c.rebuildEvery, c.count, 2026)
	if c.rebuild {
		pool := exec.New(1)
		defer pool.Close()
		e.Rebuild(pool)
	}
	var buf bytes.Buffer
	if _, err := CheckpointTo(&buf, e, c.params); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// compareGolden checks got against the committed fixture at path and
// returns the committed bytes. With -update it rewrites the fixture instead
// and returns nil.
func compareGolden(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return nil
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bytes diverge from %s: got %d bytes, want %d — the wire format moved; "+
			"if intentional, bump FormatVersion and regenerate with -update", path, len(got), len(want))
	}
	return want
}

func TestGoldenCheckpoint(t *testing.T) {
	for _, c := range goldenCkptCases() {
		t.Run(c.name, func(t *testing.T) {
			want := compareGolden(t, filepath.Join("testdata", "ckpt", c.name+".pfgc"), goldenBytes(t, c))
			if want == nil {
				return
			}

			// Backward compatibility: the committed file, and its legacy
			// copy where one is kept, must still restore to the exact engine
			// bits.
			files := [][]byte{want}
			if c.legacy {
				old, err := os.ReadFile(filepath.Join("testdata", "ckpt", "legacy_"+c.name+".pfgc"))
				if err != nil {
					t.Fatal(err)
				}
				// File offset = payload offset + the 4-byte frame length.
				if a, b := binary.LittleEndian.Uint64(old[4+88:]), binary.LittleEndian.Uint64(old[4+96:]); a != 2 || b != 3 {
					t.Fatalf("legacy fixture's reserved header bytes hold %d, %d; want 2, 3", a, b)
				}
				files = append(files, old)
			}
			fresh := buildEngine(t, c.n, c.window, c.rebuildEvery, c.count, 2026)
			if c.rebuild {
				pool := exec.New(1)
				defer pool.Close()
				fresh.Rebuild(pool)
			}
			for i, data := range files {
				eng, p, err := RestoreEngine(bytes.NewReader(data), ws.New())
				if err != nil {
					t.Fatalf("committed fixture %d no longer restores: %v", i, err)
				}
				if p.Inc != c.params.Inc {
					t.Fatalf("fixture %d: restored inc params %+v != %+v", i, p.Inc, c.params.Inc)
				}
				sameEngine(t, c.name, fresh, eng)
			}
		})
	}
}

// The golden WAL segment: n=5, starting at generation 7, frames stamped 8,
// 9, 11 and 12 (9 → 11 is a push that triggered a periodic rebuild).
const goldenWALPath = "testdata/ckpt/wal_n5.wal"

var goldenWALGens = []uint64{8, 9, 11, 12}

func TestGoldenWAL(t *testing.T) {
	samples := feed(3, 5, len(goldenWALGens))
	var buf bytes.Buffer
	w, err := NewWALWriter(&buf, 7, SyncBatch)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range goldenWALGens {
		if err := w.Append(g, samples[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := compareGolden(t, filepath.FromSlash(goldenWALPath), buf.Bytes())
	if want == nil {
		return
	}

	// The committed segment replays to exactly the frames written.
	start, frames, torn, err := ReadWAL(bytes.NewReader(want))
	if err != nil || torn {
		t.Fatalf("committed segment: err %v, torn %v", err, torn)
	}
	if start != 7 || len(frames) != len(goldenWALGens) {
		t.Fatalf("committed segment: start %d, %d frames; want 7, %d", start, len(frames), len(goldenWALGens))
	}
	for i, fr := range frames {
		if fr.Gen != goldenWALGens[i] || len(fr.Sample) != len(samples[i]) {
			t.Fatalf("frame %d: gen %d with %d values, want gen %d with %d", i, fr.Gen, len(fr.Sample), goldenWALGens[i], len(samples[i]))
		}
		for j, v := range fr.Sample {
			if math.Float64bits(v) != math.Float64bits(samples[i][j]) {
				t.Fatalf("frame %d sample[%d] %v != %v", i, j, v, samples[i][j])
			}
		}
	}
}

func TestGoldenFixturesCommitted(t *testing.T) {
	if *updateGolden {
		t.Skip("updating")
	}
	paths := []string{filepath.FromSlash(goldenWALPath)}
	for _, c := range goldenCkptCases() {
		paths = append(paths, filepath.Join("testdata", "ckpt", c.name+".pfgc"))
	}
	for _, p := range paths {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing golden fixture: %v", err)
		}
	}
}

// TestGoldenFloat32Rejected: checkpoints written by builds that could store
// float32 moments (header precision field 1) are refused with ErrFormat, so
// such a session fails to recover instead of being reinterpreted as float64.
func TestGoldenFloat32Rejected(t *testing.T) {
	for _, name := range []string{"f32_midfill", "f32_postrebuild", "legacy_f32_postrebuild"} {
		data, err := os.ReadFile(filepath.Join("testdata", "ckpt", name+".pfgc"))
		if err != nil {
			t.Fatal(err)
		}
		// File offset = payload offset 12 + the 4-byte frame length.
		if prec := binary.LittleEndian.Uint32(data[4+12:]); prec != 1 {
			t.Fatalf("%s: precision field %d, want 1 (a float32 checkpoint)", name, prec)
		}
		eng, _, err := RestoreEngine(bytes.NewReader(data), ws.New())
		if eng != nil || !errors.Is(err, ErrFormat) {
			t.Fatalf("%s: restore returned engine %v, error %v; want ErrFormat", name, eng != nil, err)
		}
	}
}
