package pfg

// Streamer-level durability contract: Checkpoint/RestoreStreamer round the
// full public surface — the restored streamer resumes at the checkpointed
// generation and its snapshots are bit-identical (Workers:1) to the
// original's, including as both keep evolving through pushes and rebuilds.
// The byte-level fault injection lives in internal/ckpt/crash_test.go; this
// file owns the API semantics: config-only checkpoints, closed streamers,
// cluster-option rebinding, and the incremental layer's deliberate
// cache-not-state behavior across a restore.

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"pfg/internal/ckpt"
)

// checkpointBytes snapshots a streamer's durable form.
func checkpointBytes(t *testing.T, st *Streamer) (uint64, []byte) {
	t.Helper()
	var buf bytes.Buffer
	gen, err := st.Checkpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return gen, buf.Bytes()
}

func TestStreamerCheckpointRestore(t *testing.T) {
	const n, window, K, k = 10, 16, 4, 3
	ctx := context.Background()
	configs := []struct {
		name string
		opts StreamOptions
	}{
		{"float64", StreamOptions{Cluster: Options{Workers: 1}, RebuildEvery: K}},
		{"hac", StreamOptions{Cluster: Options{Method: CompleteLinkage, Workers: 1}, RebuildEvery: K}},
	}
	feed := tickStream(t, n, window+2*K+9, 77)
	for _, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			orig, err := NewStreamer(window, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer orig.Close()
			cut := window - 3 // checkpoint mid-fill
			for _, x := range feed[:cut] {
				if err := orig.Push(x); err != nil {
					t.Fatal(err)
				}
			}
			gen, data := checkpointBytes(t, orig)
			if gen != orig.Generation() {
				t.Fatalf("checkpoint stamped gen %d, streamer at %d", gen, orig.Generation())
			}

			restored, err := RestoreStreamer(bytes.NewReader(data), cfg.opts.Cluster)
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			if restored.Generation() != gen || restored.Len() != orig.Len() ||
				restored.Window() != window || restored.Series() != n {
				t.Fatalf("restored shape diverges: gen %d len %d window %d", restored.Generation(), restored.Len(), restored.Window())
			}

			// Lockstep from here: every push lands both on the same state,
			// every snapshot serves the same bits.
			for i, x := range feed[cut:] {
				if err := orig.Push(x); err != nil {
					t.Fatal(err)
				}
				if err := restored.Push(x); err != nil {
					t.Fatal(err)
				}
				if orig.Generation() != restored.Generation() {
					t.Fatalf("tick %d: gen %d != %d", i, orig.Generation(), restored.Generation())
				}
			}
			a, err := orig.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			b, err := restored.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, cfg.name, b, a, k)

			// A forced rebuild on both sides must preserve the identity.
			if err := orig.Rebuild(); err != nil {
				t.Fatal(err)
			}
			if err := restored.Rebuild(); err != nil {
				t.Fatal(err)
			}
			a, err = orig.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			b, err = restored.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, cfg.name+"/rebuilt", b, a, k)
		})
	}
}

// TestStreamerCheckpointIncremental pins the cache-not-state design: the
// incremental layer's reference clustering is not persisted, so the restored
// streamer's first snapshot is an exact re-cluster — and from then on both
// sides evolve through identical gate decisions when driven in lockstep.
func TestStreamerCheckpointIncremental(t *testing.T) {
	const n, window, k = 10, 16, 3
	ctx := context.Background()
	opts := StreamOptions{
		Cluster:      Options{Workers: 1},
		RebuildEvery: 8,
		Incremental:  IncrementalOptions{Enabled: true, DriftThreshold: 0.05, MaxStale: 16},
	}
	feed := tickStream(t, n, window+14, 51)
	orig, err := NewStreamer(window, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer orig.Close()
	for _, x := range feed[:window+5] {
		if err := orig.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	// Note: no snapshot before the checkpoint — the reference cache on the
	// original side must not exist yet, or the restored side (which cannot
	// have it) would be entitled to diverge in TicksSinceExact.
	_, data := checkpointBytes(t, orig)
	restored, err := RestoreStreamer(bytes.NewReader(data), opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if _, ok := restored.IncrementalStats(); !ok {
		t.Fatal("restored streamer lost its incremental layer")
	}

	a, err := orig.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "first", b, a, k)
	if b.TicksSinceExact != 0 {
		t.Fatalf("restored first snapshot served stale (age %d), want exact", b.TicksSinceExact)
	}

	// Lockstep pushes + snapshots: the serving gates (drift, staleness)
	// see identical histories on both sides.
	for i, x := range feed[window+5:] {
		if err := orig.Push(x); err != nil {
			t.Fatal(err)
		}
		if err := restored.Push(x); err != nil {
			t.Fatal(err)
		}
		a, err := orig.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "lockstep", b, a, k)
		if a.TicksSinceExact != b.TicksSinceExact {
			t.Fatalf("tick %d: staleness %d != %d", i, a.TicksSinceExact, b.TicksSinceExact)
		}
	}
}

// TestStreamerCheckpointBeforeFirstPush: a streamer that has admitted
// nothing checkpoints its configuration alone and restores to a working
// (still series-less) streamer.
func TestStreamerCheckpointBeforeFirstPush(t *testing.T) {
	opts := StreamOptions{Cluster: Options{Workers: 1}, RebuildEvery: 6}
	st, err := NewStreamer(24, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	gen, data := checkpointBytes(t, st)
	if gen != 0 {
		t.Fatalf("empty streamer checkpointed at gen %d", gen)
	}
	restored, err := RestoreStreamer(bytes.NewReader(data), opts.Cluster)
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	if restored.Window() != 24 || restored.Series() != 0 {
		t.Fatalf("restored config diverges: window %d series %d", restored.Window(), restored.Series())
	}
	// It must come alive exactly like a fresh streamer.
	feed := tickStream(t, 6, 8, 9)
	for _, x := range feed[:4] {
		if err := restored.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	if restored.Series() != 6 || restored.Generation() != 4 {
		t.Fatalf("restored streamer did not admit pushes: series %d gen %d", restored.Series(), restored.Generation())
	}
}

func TestStreamerCheckpointClosed(t *testing.T) {
	st, err := NewStreamer(16, StreamOptions{Cluster: Options{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	var buf bytes.Buffer
	if _, err := st.Checkpoint(&buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("checkpoint of a closed streamer: %v, want ErrClosed", err)
	}
}

func TestRestoreStreamerRejectsGarbage(t *testing.T) {
	if _, err := RestoreStreamer(bytes.NewReader([]byte("not a checkpoint")), Options{}); err == nil {
		t.Fatal("garbage restored")
	} else if !errors.Is(err, ckpt.ErrCorrupt) && !errors.Is(err, ckpt.ErrBadMagic) && !errors.Is(err, ckpt.ErrFormat) {
		t.Fatalf("untyped error %v", err)
	}
}
