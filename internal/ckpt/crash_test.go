package ckpt_test

// The crash-injection harness: a fault-point writer that replays the bytes a
// real durability manager would have written, cut short or corrupted at
// every frame boundary — simulating a process killed mid-write at each
// possible point. The contract under test is the ISSUE's determinism
// clause: recovery loads the last durable prefix, and the recovered
// Streamer's snapshot bodies are byte-identical (Workers:1) to a shadow
// Streamer fed the same pushes with no crash — not just at the recovery
// point but as both keep evolving.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pfg"
	"pfg/internal/ckpt"
)

// crashFeed generates the deterministic tick stream shared by primary and
// shadow.
func crashFeed(seed int64, n, count int) [][]float64 {
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

// frameEnds walks the CRC framing (u32 len | payload | u32 crc) and returns
// the byte offset just past each frame — the set of clean crash points. A
// file truncated at frameEnds[i] holds exactly the first i+1 frames.
func frameEnds(t *testing.T, data []byte) []int {
	t.Helper()
	var ends []int
	off := 0
	for off < len(data) {
		if off+4 > len(data) {
			t.Fatalf("trailing %d bytes are not a frame", len(data)-off)
		}
		declared := int(binary.LittleEndian.Uint32(data[off:]))
		end := off + 4 + declared + 4
		if end > len(data) {
			t.Fatalf("frame at %d overruns the file", off)
		}
		ends = append(ends, end)
		off = end
	}
	return ends
}

// snapshotBody returns the marshaled wire body of a snapshot plus the
// generation it was served at — the byte-identity unit of the contract.
func snapshotBody(t *testing.T, st *pfg.Streamer) (uint64, []byte) {
	t.Helper()
	res, gen, err := st.SnapshotGen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	view, err := res.JSON([]int{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	return gen, body
}

// replayWAL pushes a recovered WAL prefix into a restored streamer using
// the generation-stamp protocol (skip reached frames, stop on a gap or a
// landing mismatch) and returns how many source ticks the streamer now
// holds beyond the checkpoint.
func replayWAL(t *testing.T, st *pfg.Streamer, frames []ckpt.WALFrame) int {
	t.Helper()
	replayed := 0
	for _, fr := range frames {
		cur := st.Generation()
		if fr.Gen <= cur {
			continue
		}
		if fr.Gen > cur+2 {
			t.Fatalf("WAL gap: frame gen %d after engine gen %d", fr.Gen, cur)
		}
		if err := st.Push(fr.Sample); err != nil {
			t.Fatal(err)
		}
		if got := st.Generation(); got != fr.Gen {
			t.Fatalf("replay landed on gen %d, frame stamped %d", got, fr.Gen)
		}
		replayed++
	}
	return replayed
}

func TestCrashRecoveryDeterminism(t *testing.T) {
	const (
		n       = 8
		window  = 16
		preCkpt = 10 // ticks admitted before the checkpoint
		inWAL   = 6  // ticks admitted after it, covered only by the WAL
		extra   = 5  // ticks pushed after recovery on both sides
	)
	configs := []struct {
		name string
		opts pfg.StreamOptions
	}{
		{"float64", pfg.StreamOptions{Cluster: pfg.Options{Workers: 1}, RebuildEvery: 4}},
		{"incremental", pfg.StreamOptions{
			Cluster:      pfg.Options{Workers: 1},
			RebuildEvery: 4,
			Incremental:  pfg.IncrementalOptions{Enabled: true, DriftThreshold: 0.05},
		}},
	}
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			feed := crashFeed(42, n, preCkpt+inWAL+extra)

			// The uncrashed history: push, checkpoint mid-stream, keep
			// pushing with every post-checkpoint tick WAL-logged — exactly
			// the bytes the serving layer's durability manager produces.
			primary, err := pfg.NewStreamer(window, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			for _, x := range feed[:preCkpt] {
				if err := primary.Push(x); err != nil {
					t.Fatal(err)
				}
			}
			var ckptBuf bytes.Buffer
			startGen, err := primary.Checkpoint(&ckptBuf)
			if err != nil {
				t.Fatal(err)
			}
			var walBuf bytes.Buffer
			wal, err := ckpt.NewWALWriter(&walBuf, startGen, ckpt.SyncNone)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range feed[preCkpt : preCkpt+inWAL] {
				if err := primary.Push(x); err != nil {
					t.Fatal(err)
				}
				if err := wal.Append(primary.Generation(), x); err != nil {
					t.Fatal(err)
				}
			}
			if err := wal.Flush(); err != nil {
				t.Fatal(err)
			}

			t.Run("checkpoint-faults", func(t *testing.T) {
				testCheckpointFaults(t, ckptBuf.Bytes(), cfg.opts.Cluster)
			})
			t.Run("wal-faults", func(t *testing.T) {
				testWALFaults(t, cfg.opts, feed, preCkpt, ckptBuf.Bytes(), walBuf.Bytes())
			})
		})
	}
}

// testCheckpointFaults crashes the checkpoint write at every frame boundary
// (and inside every frame): any prefix short of the whole file must be
// rejected with a typed error — never a panic, never a silently-wrong
// engine — which is what lets the serving layer fall back to the previous
// checkpoint as the last durable prefix.
func testCheckpointFaults(t *testing.T, valid []byte, cluster pfg.Options) {
	ends := frameEnds(t, valid)
	if len(ends) < 4 {
		t.Fatalf("checkpoint has only %d frames; the harness needs header+sums+ring+band", len(ends))
	}
	restore := func(name string, data []byte) {
		t.Helper()
		st, err := pfg.RestoreStreamer(bytes.NewReader(data), cluster)
		if st != nil {
			st.Close()
		}
		if err == nil {
			t.Fatalf("%s: truncated checkpoint restored", name)
		}
		if !errors.Is(err, ckpt.ErrCorrupt) && !errors.Is(err, ckpt.ErrFormat) &&
			!errors.Is(err, ckpt.ErrBadMagic) && !errors.Is(err, ckpt.ErrVersion) {
			t.Fatalf("%s: untyped error %v", name, err)
		}
	}
	for i, end := range ends {
		if end == len(valid) {
			if st, err := pfg.RestoreStreamer(bytes.NewReader(valid), cluster); err != nil {
				t.Fatalf("complete checkpoint rejected: %v", err)
			} else {
				st.Close()
			}
			continue
		}
		restore(fmt.Sprintf("cut-after-frame-%d", i), valid[:end])
		restore(fmt.Sprintf("cut-inside-frame-%d", i+1), valid[:end+3])
	}
	for i, end := range ends {
		corrupt := append([]byte(nil), valid...)
		corrupt[end-6] ^= 0x04 // a payload/CRC byte of frame i
		restore(fmt.Sprintf("flip-in-frame-%d", i), corrupt)
	}
}

// testWALFaults crashes the WAL at every frame boundary, inside every
// frame, and with a flipped byte in every frame. For each fault the
// recovered prefix is replayed onto a restore of the checkpoint, and the
// result must match — generation, snapshot bytes, and future evolution — a
// shadow streamer that was simply fed the same ticks and never crashed.
func testWALFaults(t *testing.T, opts pfg.StreamOptions, feed [][]float64, preCkpt int, ckptBytes, walBytes []byte) {
	ends := frameEnds(t, walBytes)
	if len(ends) < 4 {
		t.Fatalf("WAL has only %d frames; the harness needs header+3", len(ends))
	}
	type fault struct {
		name    string
		data    []byte
		durable int // WAL frames that must survive
		torn    bool
	}
	var faults []fault
	for i, end := range ends {
		faults = append(faults, fault{
			name:    fmt.Sprintf("cut-after-frame-%d", i),
			data:    walBytes[:end],
			durable: i,     // ends[0] closes the header; frame i ends at ends[i]
			torn:    false, // a cut at a frame boundary reads as a clean EOF
		})
		if end != len(walBytes) {
			faults = append(faults, fault{
				name:    fmt.Sprintf("cut-inside-frame-%d", i+1),
				data:    walBytes[:end+5],
				durable: i,
				torn:    true,
			})
		}
	}
	for i := 1; i < len(ends); i++ {
		corrupt := append([]byte(nil), walBytes...)
		corrupt[ends[i]-6] ^= 0x10
		faults = append(faults, fault{
			name:    fmt.Sprintf("flip-in-frame-%d", i),
			data:    corrupt,
			durable: i - 1,
			torn:    true,
		})
	}

	for _, f := range faults {
		t.Run(f.name, func(t *testing.T) {
			start, frames, torn, err := ckpt.ReadWAL(bytes.NewReader(f.data))
			if err != nil {
				t.Fatal(err)
			}
			if len(frames) != f.durable {
				t.Fatalf("recovered %d frames, want %d (torn %v)", len(frames), f.durable, torn)
			}
			if torn != f.torn {
				t.Fatalf("torn = %v, want %v", torn, f.torn)
			}

			restored, err := pfg.RestoreStreamer(bytes.NewReader(ckptBytes), opts.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if restored.Generation() != start {
				t.Fatalf("restored at gen %d, WAL starts at %d", restored.Generation(), start)
			}
			replayed := replayWAL(t, restored, frames)
			if replayed != f.durable {
				t.Fatalf("replayed %d frames, want %d", replayed, f.durable)
			}

			// The shadow: same ticks, no crash, no checkpoint machinery.
			shadow, err := pfg.NewStreamer(restored.Window(), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer shadow.Close()
			recovered := preCkpt + replayed
			for _, x := range feed[:recovered] {
				if err := shadow.Push(x); err != nil {
					t.Fatal(err)
				}
			}

			genR, bodyR := snapshotBody(t, restored)
			genS, bodyS := snapshotBody(t, shadow)
			if genR != genS {
				t.Fatalf("generation %d != shadow %d", genR, genS)
			}
			if !bytes.Equal(bodyR, bodyS) {
				t.Fatalf("recovered snapshot body diverges from shadow:\n%s\nvs\n%s", bodyR, bodyS)
			}

			// Both keep running: every subsequent tick must stay in lockstep.
			for _, x := range feed[recovered:] {
				if err := restored.Push(x); err != nil {
					t.Fatal(err)
				}
				if err := shadow.Push(x); err != nil {
					t.Fatal(err)
				}
			}
			genR, bodyR = snapshotBody(t, restored)
			genS, bodyS = snapshotBody(t, shadow)
			if genR != genS || !bytes.Equal(bodyR, bodyS) {
				t.Fatalf("post-recovery evolution diverged: gen %d/%d", genR, genS)
			}
		})
	}
}
