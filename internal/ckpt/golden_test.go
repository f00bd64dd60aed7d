package ckpt

// Golden wire-format corpus: deterministic engines whose exact checkpoint
// bytes are pinned under testdata/ckpt/. The checkpoint format is a
// compatibility surface — files written by one build must restore under
// every later build of the same FormatVersion — so any refactor that moves
// a single wire byte shows up here as a golden diff instead of a silent
// format fork. The decode direction doubles as the backward-compatibility
// gate: every committed fixture must still restore bit-identically.
//
// Regenerate intentionally with:
//
//	go test -run TestGoldenCheckpoint -update ./internal/ckpt/

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pfg/internal/exec"
	"pfg/internal/stream"
	"pfg/internal/ws"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/ckpt/ instead of comparing")

type goldenCase struct {
	name         string
	n, window    int
	rebuildEvery int
	prec         stream.Precision
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
		{name: "f64_midfill", n: 5, window: 12, rebuildEvery: 4, prec: stream.Float64, count: 7, params: testParams, legacy: true},
		{name: "f64_postrebuild", n: 5, window: 12, rebuildEvery: 4, prec: stream.Float64, count: 21, rebuild: true},
		{name: "f32_midfill", n: 4, window: 10, rebuildEvery: 4, prec: stream.Float32, count: 6},
		{name: "f32_postrebuild", n: 4, window: 10, rebuildEvery: 4, prec: stream.Float32, count: 17, rebuild: true, params: testParams, legacy: true},
	}
}

func goldenBytes(t *testing.T, c goldenCase) []byte {
	t.Helper()
	e := buildEngine(t, c.n, c.window, c.rebuildEvery, c.prec, c.count, 2026)
	if c.rebuild {
		pool := exec.New(1)
		defer pool.Close()
		if err := e.Rebuild(context.Background(), pool); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := CheckpointTo(&buf, e, c.params); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestGoldenCheckpoint(t *testing.T) {
	for _, c := range goldenCkptCases() {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join("testdata", "ckpt", c.name+".pfgc")
			got := goldenBytes(t, c)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(got))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("checkpoint bytes diverge from %s: got %d bytes, want %d — the wire format moved; "+
					"if intentional, bump FormatVersion and regenerate with -update", path, len(got), len(want))
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
			fresh := buildEngine(t, c.n, c.window, c.rebuildEvery, c.prec, c.count, 2026)
			if c.rebuild {
				pool := exec.New(1)
				defer pool.Close()
				if err := fresh.Rebuild(context.Background(), pool); err != nil {
					t.Fatal(err)
				}
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

func TestGoldenFixturesCommitted(t *testing.T) {
	if *updateGolden {
		t.Skip("updating")
	}
	for _, c := range goldenCkptCases() {
		if _, err := os.Stat(filepath.Join("testdata", "ckpt", c.name+".pfgc")); err != nil {
			t.Errorf("missing golden fixture: %v", err)
		}
	}
}
